type request_id = { origin : int; seq : int }

type residence = Res_active | Res_passive | Res_replica

type t =
  | Inv_request of {
      inv_id : request_id;
      target : Name.t;
      op : string;
      args : Value.t list;
      presented : Rights.t;
      reply_to : int;
      hops : int;
      may_activate : bool;
    }
  | Inv_reply of {
      inv_id : request_id;
      result : Api.invoke_result;
      frozen_hint : bool;
    }
  | Inv_nack of { inv_id : request_id; target : Name.t }
  | Hint_update of { target : Name.t; at_node : int }
  | Locate_request of { req_id : request_id; target : Name.t; reply_to : int }
  | Locate_reply of {
      req_id : request_id;
      target : Name.t;
      at_node : int;
      residence : residence;
      version : int;
    }
  | Create_request of {
      req_id : request_id;
      type_name : string;
      init : Value.t;
      reply_to : int;
    }
  | Create_reply of {
      req_id : request_id;
      result : (Capability.t, Error.t) result;
    }
  | Move_transfer of {
      target : Name.t;
      type_name : string;
      repr : Value.t;
      frozen : bool;
      reliability : Reliability.t;
      from_node : int;
      transfer_id : request_id;
    }
  | Move_ack of { transfer_id : request_id; accepted : bool }
  | Ckpt_write of {
      req_id : request_id;
      target : Name.t;
      type_name : string;
      repr : Value.t;
      version : int;
      reliability : Reliability.t;
      frozen : bool;
      reply_to : int;
    }
  | Ckpt_delta of {
      req_id : request_id;
      target : Name.t;
      type_name : string;
      delta : Delta.t;
      base_version : int;
      version : int;
      reliability : Reliability.t;
      frozen : bool;
      reply_to : int;
    }
  | Ckpt_ack of { req_id : request_id; ok : bool }
  | Ckpt_delete of { target : Name.t }
  | Ckpt_mark of { target : Name.t; passive : bool; version : int }
  | Replica_install of {
      target : Name.t;
      type_name : string;
      repr : Value.t;
      transfer_id : request_id;
      from_node : int;
    }
  | Replica_ack of { transfer_id : request_id; accepted : bool }
  | Destroy_notice of { target : Name.t }
  | Cache_fetch of { req_id : request_id; target : Name.t; reply_to : int }
  | Cache_data of {
      req_id : request_id;
      target : Name.t;
      payload : (string * Value.t) option;
    }
  | Cache_invalidate of { target : Name.t }
  | Cancel of { inv_id : request_id; target : Name.t }
  | Dir_put of {
      req_id : request_id;
      target : Name.t;
      home : int;
      replicas : int list;
      lease : int;
    }
  | Dir_get of { req_id : request_id; target : Name.t; reply_to : int }
  | Dir_nack of { req_id : request_id; target : Name.t; home : int }
  | Epoch_announce of { epoch : int; members : int list }

let header_bytes = 32
let name_bytes = 12

let result_bytes = function
  | Ok vs -> Value.list_size_bytes vs
  | Error _ -> 8

let size_bytes m =
  header_bytes
  +
  match m with
  | Inv_request { op; args; _ } ->
    name_bytes + String.length op + Value.list_size_bytes args + 8
  | Inv_reply { result; _ } -> result_bytes result
  | Inv_nack _ -> name_bytes
  | Hint_update _ -> name_bytes + 4
  | Locate_request _ -> name_bytes + 4
  | Locate_reply _ -> name_bytes + 8
  | Create_request { type_name; init; _ } ->
    String.length type_name + Value.size_bytes init + 4
  | Create_reply _ -> 24
  | Move_transfer { type_name; repr; _ } ->
    name_bytes + String.length type_name + Value.size_bytes repr + 16
  | Move_ack _ -> 8
  | Ckpt_write { type_name; repr; _ } ->
    (* The version stamp rides in the fixed allowance. *)
    name_bytes + String.length type_name + Value.size_bytes repr + 16
  | Ckpt_delta { type_name; delta; _ } ->
    name_bytes + String.length type_name + Delta.size_bytes delta + 24
  | Ckpt_ack _ -> 8
  | Ckpt_delete _ -> name_bytes
  | Ckpt_mark _ -> name_bytes + 1
  | Replica_install { type_name; repr; _ } ->
    name_bytes + String.length type_name + Value.size_bytes repr + 8
  | Replica_ack _ -> 8
  | Destroy_notice _ -> name_bytes
  | Cache_fetch _ -> name_bytes + 4
  | Cache_data { payload; _ } -> (
    name_bytes + 1
    + match payload with
      | None -> 0
      | Some (type_name, repr) ->
        String.length type_name + Value.size_bytes repr)
  | Cache_invalidate _ -> name_bytes
  | Cancel _ -> name_bytes
  | Dir_put { replicas; _ } -> name_bytes + 12 + (4 * List.length replicas)
  | Dir_get _ -> name_bytes + 4
  | Dir_nack _ -> name_bytes + 4
  | Epoch_announce { members; _ } -> 8 + (4 * List.length members)

(* The journal describes every message twice, on send and on receive,
   so this builds by plain concatenation: [Printf] allocates several
   times as much. *)
let render =
  let i = string_of_int and nm = Name.to_string in
  function
  | Inv_request { target; op; _ } -> "inv_request " ^ nm target ^ "." ^ op
  (* Deliberately omits [inv_id.seq]: journals intern these strings,
     and a per-invocation sequence number would make every reply
     distinct.  Traces correlate request and reply through event
     parent ids, not the description. *)
  | Inv_reply { inv_id; _ } -> "inv_reply n" ^ i inv_id.origin
  | Inv_nack { target; _ } -> "inv_nack " ^ nm target
  | Hint_update { target; at_node } -> "hint " ^ nm target ^ "@" ^ i at_node
  | Locate_request { target; _ } -> "locate? " ^ nm target
  | Locate_reply { target; at_node; _ } ->
    "locate! " ^ nm target ^ "@" ^ i at_node
  | Create_request { type_name; _ } -> "create " ^ type_name
  | Create_reply _ -> "create_reply"
  | Move_transfer { target; _ } -> "move " ^ nm target
  | Move_ack _ -> "move_ack"
  | Ckpt_write { target; version; _ } ->
    "ckpt_write " ^ nm target ^ " v" ^ i version
  | Ckpt_delta { target; base_version; version; delta; _ } ->
    "ckpt_delta " ^ nm target ^ " v" ^ i base_version ^ "->v" ^ i version
    ^ " (" ^ Delta.describe delta ^ ")"
  | Ckpt_ack _ -> "ckpt_ack"
  | Ckpt_delete { target } -> "ckpt_delete " ^ nm target
  | Ckpt_mark { target; passive; version } ->
    "ckpt_mark " ^ nm target ^ " passive=" ^ string_of_bool passive ^ " v"
    ^ i version
  | Replica_install { target; _ } -> "replica " ^ nm target
  | Replica_ack _ -> "replica_ack"
  | Destroy_notice { target } -> "destroy " ^ nm target
  | Cache_fetch { target; _ } -> "cache? " ^ nm target
  | Cache_data { target; payload; _ } ->
    "cache! " ^ nm target ^ if payload = None then " miss" else " hit"
  | Cache_invalidate { target } -> "cache_inval " ^ nm target
  (* Like [Inv_reply], omits the sequence number so journal interning
     keeps one string per target rather than one per cancellation. *)
  | Cancel { target; _ } -> "cancel " ^ nm target
  (* Omits the lease stamp (virtual-time ns would defeat journal
     interning) and, like the replies above, any sequence number. *)
  | Dir_put { target; home; _ } -> "dir_put " ^ nm target ^ "@" ^ i home
  | Dir_get { target; _ } -> "dir? " ^ nm target
  | Dir_nack { target; _ } -> "dir_nack " ^ nm target
  (* One string per epoch: the member list would re-spell the epoch. *)
  | Epoch_announce { epoch; _ } -> "epoch e" ^ i epoch

(* An invocation's request and reply are described on every send and
   receive, so their texts are memoised by the fields they print: a
   request's by target and operation, a reply's by origin node.  The
   memo caches a pure function, so sharing it between clusters changes
   no text; [memo_cap] bounds the targets it holds. *)
let memo_cap = 4096
let request_memo : (string * string) list Name.Table.t = Name.Table.create 64
let reply_memo = ref [||]

let rec assoc_op op = function
  | [] -> raise Not_found
  | (o, text) :: rest -> if String.equal o op then text else assoc_op op rest

let describe_request msg ~target ~op =
  match Name.Table.find request_memo target with
  | known -> (
    match assoc_op op known with
    | text -> text
    | exception Not_found ->
      let text = render msg in
      Name.Table.replace request_memo target ((op, text) :: known);
      text)
  | exception Not_found ->
    let text = render msg in
    if Name.Table.length request_memo < memo_cap then
      Name.Table.replace request_memo target [ (op, text) ];
    text

let describe_reply msg ~origin =
  let known = !reply_memo in
  if origin < Array.length known && String.length known.(origin) > 0 then
    known.(origin)
  else begin
    let text = render msg in
    let known =
      if origin < Array.length known then known
      else begin
        let grown = Array.make (origin + 1) "" in
        Array.blit known 0 grown 0 (Array.length known);
        reply_memo := grown;
        grown
      end
    in
    known.(origin) <- text;
    text
  end

let describe msg =
  match msg with
  | Inv_request { target; op; _ } -> describe_request msg ~target ~op
  | Inv_reply { inv_id; _ } -> describe_reply msg ~origin:inv_id.origin
  | _ -> render msg

(* ------------------------------------------------------------------ *)
(* A message crosses the simulated LAN as an OCaml value; its trace
   context rides beside it in this envelope.  Only the size is
   modelled, and it sets the wire time. *)

type traced = { tr_ctx : Eden_obs.Tracectx.t option; tr_msg : t }

let traced ?ctx m = { tr_ctx = ctx; tr_msg = m }

(* What a trace context (trace id and parent id) costs on the wire;
   charged to the LAN timing model so traced and untraced frames are
   not timed identically. *)
let trace_ctx_bytes = 16

let traced_size { tr_ctx; tr_msg } =
  size_bytes tr_msg
  + (match tr_ctx with Some _ -> trace_ctx_bytes | None -> 0)
