let send ~n ~except m =
  let rec go q acc =
    if q < 0 then acc
    else
      go (q - 1)
        (if List.mem q except then acc else Sim.Protocol.Send (q, m) :: acc)
  in
  go (n - 1) []
