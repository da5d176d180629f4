type t = {
  name : string;
  mem : Failure_pattern.t -> bool;
  sample : n:int -> horizon:int -> Rng.t -> Failure_pattern.t;
}

let name t = t.name
let mem t fp = t.mem fp
let sample t ~n ~horizon rng = t.sample ~n ~horizon rng

(* Draw a pattern with exactly [k] faulty processes at random times. *)
let sample_with_faults ~n ~horizon ~k ?(min_time = 0) rng =
  let victims =
    Rng.shuffle rng (Pid.all n) |> fun l -> List.filteri (fun i _ -> i < k) l
  in
  let span = max 1 (horizon - min_time + 1) in
  let crashes =
    List.map (fun p -> (p, min_time + Rng.int rng span)) victims
  in
  Failure_pattern.make ~n crashes

let sample_up_to ~n ~horizon ~max_faults ?(min_time = 0) rng =
  let k = Rng.int rng (max_faults + 1) in
  sample_with_faults ~n ~horizon ~k ~min_time rng

let any =
  {
    name = "any";
    mem = (fun _ -> true);
    sample =
      (fun ~n ~horizon rng -> sample_up_to ~n ~horizon ~max_faults:(n - 1) rng);
  }

let majority_correct =
  {
    name = "majority-correct";
    mem = Failure_pattern.majority_correct;
    sample =
      (fun ~n ~horizon rng ->
        let max_faults = (n - 1) / 2 in
        sample_up_to ~n ~horizon ~max_faults rng);
  }

let at_most f =
  {
    name = Printf.sprintf "at-most-%d-faulty" f;
    mem = (fun fp -> Pidset.cardinal (Failure_pattern.faulty fp) <= f);
    sample =
      (fun ~n ~horizon rng ->
        sample_up_to ~n ~horizon ~max_faults:(min f (n - 1)) rng);
  }

let failure_free =
  {
    name = "failure-free";
    mem = (fun fp -> Pidset.is_empty (Failure_pattern.faulty fp));
    sample = (fun ~n ~horizon:_ _ -> Failure_pattern.failure_free n);
  }

let process_correct p =
  {
    name = Printf.sprintf "p%d-correct" p;
    mem = (fun fp -> not (Pidset.mem p (Failure_pattern.faulty fp)));
    sample =
      (fun ~n ~horizon rng ->
        (* Sample, then pardon [p] if it was selected. *)
        let fp = sample_up_to ~n ~horizon ~max_faults:(n - 1) rng in
        match Failure_pattern.crash_time fp p with
        | None -> fp
        | Some _ ->
          let crashes =
            List.filter_map
              (fun q ->
                if Pid.equal q p then None
                else
                  Option.map
                    (fun time -> (q, time))
                    (Failure_pattern.crash_time fp q))
              (Pid.all n)
          in
          Failure_pattern.make ~n crashes);
  }

let no_crash_before t0 =
  {
    name = Printf.sprintf "no-crash-before-%d" t0;
    mem =
      (fun fp ->
        match Failure_pattern.first_crash fp with
        | None -> true
        | Some t -> t >= t0);
    sample =
      (fun ~n ~horizon rng ->
        let horizon = max horizon t0 in
        sample_up_to ~n ~horizon ~max_faults:(n - 1) ~min_time:t0 rng);
  }
