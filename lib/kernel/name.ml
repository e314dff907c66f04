(* [text] is the rendered form, made once with the name: names are
   rendered several times on every invocation.  It is a function of
   the two numbers, so structural equality and ordering are as if it
   were absent. *)
type t = { birth_node : int; serial : int; text : string }

let render birth_node serial =
  "obj<" ^ string_of_int birth_node ^ "." ^ string_of_int serial ^ ">"

let make ~birth_node ~serial =
  if birth_node < 0 || serial < 0 then invalid_arg "Name.make: negative field";
  { birth_node; serial; text = render birth_node serial }

let birth_node n = n.birth_node
let serial n = n.serial
let equal a b = a.birth_node = b.birth_node && a.serial = b.serial
let compare a b =
  let c = Int.compare a.birth_node b.birth_node in
  if c <> 0 then c else Int.compare a.serial b.serial

let hash n = (n.birth_node * 1_000_003) lxor n.serial
let pp ppf n = Format.fprintf ppf "obj<%d.%d>" n.birth_node n.serial
let to_string n = n.text

let of_string s =
  match Scanf.sscanf s "obj<%u.%u>%!" (fun b srl -> (b, srl)) with
  | b, srl -> Some (make ~birth_node:b ~serial:srl)
  | exception _ -> None

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
