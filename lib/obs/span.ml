type collector = Metrics.t

let started reg =
  let n = ref 0 in
  Metrics.iter reg ~filter:(String.equal "eden.invocations") (fun _ _ ->
    function Metrics.Counter c -> n := !n + c | _ -> ());
  !n
