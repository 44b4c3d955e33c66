module Json = Dcn_engine.Json

type better = Lower | Higher
type decl = { name : string; unit : string; better : better }

let d ?(better = Lower) name unit = { name; unit; better }

(* Printed with --trace 0; BENCHMARK.json declares the same list, with
   the bound each may worsen by. *)
let end_to_end =
  [
    d "setup_s" "s";
    d "latency_p50_ms" "ms";
    d "latency_p90_ms" "ms";
    d "latency_p99_ms" "ms";
    d ~better:Higher "throughput_per_s" "1/s";
    d "peak_rss_mb" "MB";
    d "energy_over_lb" "ratio";
  ]

(* Printed with --trace 1.  A metric of a layer the workload never
   calls reads 0. *)
let per_layer =
  [
    d "fw.kernel_ms_per_op" "ms";
    d "fw.kernel_share" "share";
    d "fw.iters_per_op" "count";
    d "fw.iters_per_solve" "count";
    d "fw.kernel_minor_words_per_op" "words";
    d "relaxation.self_ms_per_op" "ms";
    d "relaxation.intervals_per_op" "count";
    d ~better:Higher "session.reused_share" "share";
    d "certify.ms_per_event" "ms";
    d "certify.calls_per_event" "count";
    d "session.self_ms_per_event" "ms";
    d "session.minor_words_per_event" "words";
    d "session.apply_ms_p50" "ms";
    d "session.apply_ms_p99" "ms";
    d "wal.append_ms_p50" "ms";
    d "wal.append_ms_p99" "ms";
    d "wal.bytes_per_event" "bytes";
    d "checkpoint.ms_mean" "ms";
    d "checkpoint.bytes_mean" "bytes";
    d "event.parse_us_p50" "us";
    d "reply.encode_us_p50" "us";
    d "rs.self_ms_per_op" "ms";
    d "rs.attempts_per_op" "count";
    d ~better:Higher "rs.feasible_share" "share";
    d "lb.ms_per_op" "ms";
    d "rejected_share" "share";
    d "unattributed_share" "share";
    d "trace.overhead" "ratio";
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Metrics.quantile: no samples";
  if not (q > 0. && q <= 1.) then invalid_arg "Metrics.quantile: q outside (0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

(* A growable sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add s x =
    if s.n = Array.length s.a then s.a <- Array.append s.a (Array.make s.n 0.);
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let values s = Array.sub s.a 0 s.n
  let sum s = Array.fold_left ( +. ) 0. (values s)
  let mean s = if s.n = 0 then 0. else sum s /. float_of_int s.n
  let quantile s q = if s.n = 0 then 0. else quantile (values s) q
end

let result_json ~trace ~correct ~attempted ~failed values =
  let decls = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun dc -> dc.name = name) decls) then
        invalid_arg ("Metrics.result_json: undeclared metric " ^ name))
    values;
  let metric dc =
    match List.assoc_opt dc.name values with
    | None -> invalid_arg ("Metrics.result_json: missing metric " ^ dc.name)
    | Some v ->
      ( dc.name,
        Json.Obj [ ("value", Json.float v); ("unit", Json.Str dc.unit) ] )
  in
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Json.Obj (List.map metric decls));
    ]
