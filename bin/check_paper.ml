(* Runs every claim of {!Core.Claims}, prints one PASS/FAIL line each,
   writes BENCH_weakest_fd.json and CLAIMS.md into the working directory,
   and exits 1 if any verdict fails.

     dune exec bin/check_paper.exe
*)

let write path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let () =
  Format.printf "Claims of Delporte-Gallet et al., PODC 2004@.@.";
  let outcomes =
    List.map
      (fun (c : Core.Claims.t) ->
        let o = Core.Claims.check c in
        (match o.verdict with
        | Ok () -> Format.printf "  [PASS] %-8s %s@." c.id c.title
        | Error e -> Format.printf "  [FAIL] %-8s %s: %s@." c.id c.title e);
        (c, o))
      Core.Claims.all
  in
  write "BENCH_weakest_fd.json" (Core.Claims.bench_json ());
  write "CLAIMS.md" (Core.Claims.markdown outcomes);
  let failed = List.filter (fun (_, o) -> Result.is_error o.Core.Claims.verdict) outcomes in
  Format.printf "@.%d failure(s).@." (List.length failed);
  exit (if failed = [] then 0 else 1)
