open Eden_util

type t = {
  eng : Engine.t;
  queue : Engine.handle Fifo.t;
  enqueue : Engine.handle -> unit;  (* [await]'s registration, made once *)
}

let create eng =
  let queue = Fifo.create () in
  { eng; queue; enqueue = (fun h -> Fifo.push_exn queue h) }

let await ?timeout c = Engine.suspend ?timeout c.enqueue

let rec signal c =
  if not (Fifo.is_empty c.queue) then
    let h = Fifo.pop_exn c.queue in
    if Engine.handle_pending h then Engine.wake c.eng h else signal c

let broadcast c =
  while not (Fifo.is_empty c.queue) do
    let h = Fifo.pop_exn c.queue in
    if Engine.handle_pending h then Engine.wake c.eng h
  done

let waiters c =
  let n = ref 0 in
  Fifo.iter (fun h -> if Engine.handle_pending h then incr n) c.queue;
  !n
