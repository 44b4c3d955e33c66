(* Tests of the benchmark's own helpers, and the cross-check of the
   benchmark's replies against the CLI.

   Usage: test_perfbench.exe BENCHMARK.json DCN_EXE *)

open Dcn_perfbench
module Json = Dcn_engine.Json

let benchmark_json = ref ""
let dcn_exe = ref ""

(* ------------------------------ quantile ------------------------------ *)

let test_quantile () =
  let check msg want xs q =
    Alcotest.(check (float 0.)) msg want (Metrics.quantile xs q)
  in
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p99 of 1..100 is the 99th value" 99. hundred 0.99;
  check "p50 of 1..100" 50. hundred 0.5;
  check "p100 is the maximum" 100. hundred 1.;
  check "a tiny q is the minimum" 1. hundred 0.001;
  check "nearest rank, no interpolation" 2. [| 4.; 1.; 3.; 2. |] 0.5;
  check "p99 of 1000 leaves ten samples above" 990.
    (Array.init 1000 (fun i -> float_of_int (i + 1)))
    0.99;
  check "single sample" 7. [| 7. |] 0.9;
  Alcotest.check_raises "no samples" (Invalid_argument "Metrics.quantile: no samples")
    (fun () -> ignore (Metrics.quantile [||] 0.5));
  Alcotest.check_raises "q = 0" (Invalid_argument "Metrics.quantile: q outside (0,1]")
    (fun () -> ignore (Metrics.quantile [| 1. |] 0.))

(* ---------------------------- generators ----------------------------- *)

let lines stream n = List.init n (fun _ -> Gen.event_line (stream.Gen.next ()))

let test_serve_streams () =
  List.iter
    (fun (name, make) ->
      let a = lines (make ~seed:7) 2000 and b = lines (make ~seed:7) 2000 in
      Alcotest.(check (list string)) (name ^ ": same seed, same stream") a b;
      Alcotest.(check bool)
        (name ^ ": another seed, another stream")
        false
        (a = lines (make ~seed:8) 2000))
    [ ("serve-churn", Gen.churn); ("serve-deep", Gen.deep) ]

let test_fig2_instances () =
  let graph = Gen.fig2_graph () in
  let flows ~seed ~index =
    let inst, rng = Gen.fig2_instance ~graph ~seed ~index in
    ( List.map
        (fun (f : Dcn_flow.Flow.t) -> (f.id, f.src, f.dst, f.volume, f.release, f.deadline))
        inst.Dcn_core.Instance.flows,
      Dcn_util.Prng.bits64 rng )
  in
  Alcotest.(check bool) "same (seed, index), same instance" true
    (flows ~seed:3 ~index:5 = flows ~seed:3 ~index:5);
  Alcotest.(check bool) "another index, another instance" false
    (flows ~seed:3 ~index:5 = flows ~seed:3 ~index:6);
  Alcotest.(check bool) "another seed, another instance" false
    (flows ~seed:3 ~index:5 = flows ~seed:4 ~index:5)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_emit () =
  let path = "perfbench-emit.events" in
  Gen.write_events path (Gen.churn ~seed:5);
  Alcotest.(check (list string)) "the .events file is the stream"
    (lines (Gen.churn ~seed:5) Gen.emit_events) (read_lines path);
  Sys.remove path

(* ------------------------- declared metrics -------------------------- *)

let declared section =
  let json = Json.of_string (In_channel.with_open_bin !benchmark_json In_channel.input_all) in
  List.map
    (fun m ->
      ( Json.to_str (Json.get "name" m),
        Json.to_str (Json.get "unit" m),
        Json.to_str (Json.get "better" m) ))
    (Json.to_list (Json.get section json))

let test_declared () =
  let ours decls =
    List.map
      (fun (d : Metrics.decl) -> (d.name, d.unit, Metrics.better_to_string d.better))
      decls
  in
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "end_to_end" (ours Metrics.end_to_end) (declared "end_to_end");
  Alcotest.check t "per_layer" (ours Metrics.per_layer) (declared "per_layer");
  let values decls = List.map (fun (d : Metrics.decl) -> (d.name, 1.)) decls in
  ignore (Metrics.result_json ~trace:false ~correct:true ~attempted:1 ~failed:0
            (values Metrics.end_to_end));
  Alcotest.check_raises "an undeclared metric is refused"
    (Invalid_argument "Metrics.result_json: undeclared metric fw.kernel_share") (fun () ->
      ignore
        (Metrics.result_json ~trace:false ~correct:true ~attempted:1 ~failed:0
           (("fw.kernel_share", 1.) :: values Metrics.end_to_end)));
  Alcotest.check_raises "a missing metric is refused"
    (Invalid_argument "Metrics.result_json: missing metric trace.overhead") (fun () ->
      ignore
        (Metrics.result_json ~trace:true ~correct:true ~attempted:1 ~failed:0
           (List.filter (fun (n, _) -> n <> "trace.overhead") (values Metrics.per_layer))))

(* --------------------------- CLI cross-check ------------------------- *)

(* Runs [args] with stdin from [stdin_path] (if any) and stdout to
   [out]; returns the exit code. *)
let run_cli ?stdin_path args ~out =
  let stdin_fd =
    match stdin_path with
    | Some p -> Unix.openfile p [ Unix.O_RDONLY ] 0
    | None -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0
  in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process !dcn_exe (Array.of_list (!dcn_exe :: args)) stdin_fd out_fd Unix.stderr
  in
  Unix.close stdin_fd;
  Unix.close out_fd;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

let strip_stamps line =
  match Json.of_string line with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> k <> "seq" && k <> "uptime_ms") fields))
  | _ -> Alcotest.failf "not a reply object: %s" line

(* One emitted serve-churn stream through the benchmark and through the
   CLI with the same topology, cap, sigma and seed.  [dcn serve] (with
   a WAL, checkpointing as the benchmark's store does) must print the
   benchmark's reply strings, stamps aside; [dcn replay] must reach the
   same outcome for every event. *)
let test_crosscheck () =
  let seed = 3 and events = Gen.emit_events in
  let spec = Option.get (Workloads.serve_spec "serve-churn") in
  let o =
    { Workloads.seed; seconds = 0.; trace = false; scratch = "perfbench-crosscheck" }
  in
  let replies = Workloads.replies spec o ~events in
  let stream = "perfbench-crosscheck.events" in
  Gen.write_events stream (spec.Workloads.stream ~seed);
  let common =
    [
      "--topology"; "fat-tree:4"; "--cap"; Printf.sprintf "%.17g" Gen.churn_cap;
      "--sigma"; "1"; "--seed"; string_of_int seed;
    ]
  in
  let wal = "perfbench-crosscheck-wal" in
  Workloads.rm_rf wal;
  let code =
    run_cli ~stdin_path:stream
      ([ "serve"; "--strict"; "--wal"; wal; "--checkpoint-every";
         string_of_int Workloads.checkpoint_every ] @ common)
      ~out:"perfbench-serve.out"
  in
  Alcotest.(check int) "dcn serve exits 0" 0 code;
  Alcotest.(check (list string)) "dcn serve replies = benchmark replies" replies
    (List.map strip_stamps (read_lines "perfbench-serve.out"));
  let code = run_cli ([ "replay"; stream; "--strict" ] @ common) ~out:"perfbench-replay.out" in
  Alcotest.(check int) "dcn replay exits 0" 0 code;
  let replayed =
    List.filteri (fun i _ -> i < events) (read_lines "perfbench-replay.out")
    |> List.map (fun l ->
           (* "%4d  %-8s <kind>: ..." — drop the sequence number. *)
           Scanf.sscanf l " %d %s %s@:%s@\n" (fun _ ev kind rest ->
               (ev, kind, if kind = "rejected" then String.trim rest else "")))
  in
  let ours =
    List.map
      (fun r ->
        let j = Json.of_string r in
        let kind = Json.to_str (Json.get "outcome" j) in
        ( Json.to_str (Json.get "event" j),
          kind,
          if kind = "rejected" then Json.to_str (Json.get "reason" j) else "" ))
      replies
  in
  Alcotest.(check (list (triple string string string)))
    "dcn replay outcomes = benchmark outcomes" ours replayed;
  Alcotest.(check bool) "the stream exercises admission rejections" true
    (List.exists (fun (_, k, _) -> k = "rejected") ours);
  List.iter Workloads.rm_rf
    [ o.Workloads.scratch; wal; stream; "perfbench-serve.out"; "perfbench-replay.out" ]

let () =
  (match Sys.argv with
  | [| _; bench; dcn |] ->
    benchmark_json := bench;
    dcn_exe := dcn
  | _ ->
    prerr_endline "usage: test_perfbench.exe BENCHMARK.json DCN_EXE";
    exit 2);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ("quantile", [ Alcotest.test_case "nearest-rank rule" `Quick test_quantile ]);
      ( "generators",
        [
          Alcotest.test_case "serve streams by seed" `Quick test_serve_streams;
          Alcotest.test_case "fig2 instances by seed and index" `Quick test_fig2_instances;
          Alcotest.test_case "emitted .events file" `Quick test_emit;
        ] );
      ("metrics", [ Alcotest.test_case "declared in BENCHMARK.json" `Quick test_declared ]);
      ("crosscheck", [ Alcotest.test_case "benchmark vs dcn serve and replay" `Quick test_crosscheck ]);
    ]
