open Eden_util

type t = {
  eng : Engine.t;
  mutable count : int;
  queue : Engine.handle Fifo.t;
  enqueue : Engine.handle -> unit;  (* [acquire]'s registration, made once *)
}

let create eng ~init =
  if init < 0 then invalid_arg "Semaphore.create: negative init";
  let queue = Fifo.create () in
  { eng; count = init; queue; enqueue = (fun h -> Fifo.push_exn queue h) }

let try_acquire s =
  if s.count > 0 then begin
    s.count <- s.count - 1;
    true
  end
  else false

(* Hand the permit to the longest-waiting live process, or return it to
   the count.  Stale handles (timed out, killed) are dropped on the
   way. *)
let rec release s =
  if Fifo.is_empty s.queue then s.count <- s.count + 1
  else
    let h = Fifo.pop_exn s.queue in
    if Engine.handle_pending h then Engine.wake s.eng h else release s

let acquire ?timeout s =
  if try_acquire s then true
  else
    match Engine.suspend ?timeout s.enqueue with
    | Engine.Woken -> true (* the releaser handed us its permit *)
    | Engine.Timed_out -> false
    | exception e ->
      (* Killed after a release handed us its permit but before we
         ran: the permit is ours, so pass it on rather than lose it. *)
      if Engine.was_woken s.eng then release s;
      raise e

let permits s = s.count

let waiters s =
  let n = ref 0 in
  Fifo.iter (fun h -> if Engine.handle_pending h then incr n) s.queue;
  !n
