(* The benchmark program.  One workload per process, single domain:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one JSON result line last on stdout (see BENCHMARK.json).
   [--emit-events FILE] instead writes the first [Gen.emit_events]
   events of a serve workload's stream as a .events file for [dcn
   serve]/[dcn replay]. *)

open Dcn_perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let emit = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall time of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--emit-events", Arg.Set_string emit, "FILE write the serve stream and exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "'");
    exit 2
  end;
  if !emit <> "" then begin
    match Workloads.serve_spec !workload with
    | None ->
      prerr_endline "perfbench: --emit-events needs a serve workload";
      exit 2
    | Some spec -> Gen.write_events !emit (spec.Workloads.stream ~seed:!seed)
  end
  else begin
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    end;
    let o =
      {
        Workloads.seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        scratch = Filename.concat ".bench_build" (Printf.sprintf "perfbench-%d" (Unix.getpid ()));
      }
    in
    let r =
      Fun.protect
        ~finally:(fun () -> Workloads.rm_rf o.Workloads.scratch)
        (fun () -> Workloads.run !workload o)
    in
    print_endline
      (Dcn_engine.Json.to_string
         (Metrics.result_json ~trace:o.trace ~correct:r.correct ~attempted:r.attempted
            ~failed:r.failed r.metrics))
  end
