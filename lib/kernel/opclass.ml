type spec = { class_name : string; operations : string list; limit : int }

let validate specs ~operations =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_specs seen_names seen_ops = function
    | [] ->
      let missing =
        List.filter (fun op -> not (List.mem op seen_ops)) operations
      in
      (match missing with
      | [] -> Ok ()
      | op :: _ -> err "operation %S belongs to no invocation class" op)
    | s :: rest ->
      if s.limit < 1 then err "class %S has non-positive limit" s.class_name
      else if List.mem s.class_name seen_names then
        err "duplicate class name %S" s.class_name
      else if s.operations = [] then err "class %S is empty" s.class_name
      else begin
        let rec check_ops = function
          | [] -> check_specs (s.class_name :: seen_names) (s.operations @ seen_ops) rest
          | op :: ops ->
            if not (List.mem op operations) then
              err "class %S names unknown operation %S" s.class_name op
            else if List.mem op seen_ops then
              err "operation %S appears in more than one class" op
            else if List.mem op ops then
              err "operation %S repeated within class %S" op s.class_name
            else check_ops ops
        in
        check_ops s.operations
      end
  in
  check_specs [] [] specs

let rec class_of specs ~op =
  match specs with
  | [] -> invalid_arg (Printf.sprintf "Opclass.class_of: %S unclassified" op)
  | s :: rest -> if List.mem op s.operations then s else class_of rest ~op

let singleton_classes ~operations ~limit =
  List.map
    (fun op -> { class_name = op; operations = [ op ]; limit })
    operations

let one_class ~name ~operations ~limit =
  [ { class_name = name; operations; limit } ]
