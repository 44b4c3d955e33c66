module Json = Dcn_engine.Json
module Trace = Dcn_engine.Trace
module Profile = Dcn_engine.Profile
module Event = Dcn_serve.Event
module Session = Dcn_serve.Session
module Store = Dcn_durable.Store
module Wal = Dcn_durable.Wal
module Checkpoint = Dcn_durable.Checkpoint
module Instance = Dcn_core.Instance
module Relaxation = Dcn_core.Relaxation
module Solution = Dcn_core.Solution
module Flow = Dcn_flow.Flow

type options = {
  seed : int;
  seconds : float;  (** wall time of the measured phase *)
  trace : bool;
  scratch : string;  (** directory for durable stores; created, then removed *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

module Samples = Metrics.Samples

(* Timed-phase length: at least [seconds] of wall time and [min_ops]
   operations, so the fixed-prefix metrics (energy_over_lb,
   rejected_share) always cover the same operations; [hard_stop] keeps
   a run on a slow machine within a few minutes. *)
let hard_stop = 120.

let keep_going ~start ~seconds ~min_ops ops =
  let elapsed = now () -. start in
  elapsed < hard_stop && (elapsed < seconds || ops < min_ops)

(* The process's peak resident set (VmHWM), from Linux's /proc. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> scan ())
      in
      scan ())

(* Set-up runs [setup_reps] times from scratch; the median of its
   reference times is reported, and the last one is measured.  [build]
   ticks the reference between its steps. *)
let setup_reps = 3

let repeat_setup refr ~build ~dispose =
  let times = Array.make setup_reps 0. in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    Option.iter dispose !last;
    let v, dt = Reference.timed_phase refr build in
    times.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, Metrics.quantile times 0.5)

(* The measured phase's operation times, with the midpoint of each so
   that it can be scaled to reference time once the phase is over, and
   whether the traced run traced it. *)
module Ops = struct
  type t = { mids : Samples.t; raw : Samples.t; traced : Samples.t }

  let create () = { mids = Samples.create (); raw = Samples.create (); traced = Samples.create () }

  let add t ~t0 ~dt ~traced =
    Samples.add t.mids (t0 +. (dt /. 2.));
    Samples.add t.raw dt;
    Samples.add t.traced (if traced then 1. else 0.)

  (* Reference times in ms. *)
  let scaled_ms t refr =
    let s = Samples.create () in
    for i = 0 to t.raw.n - 1 do
      Samples.add s (1e3 *. t.raw.a.(i) *. Reference.scale refr ~at:t.mids.a.(i))
    done;
    s

  (* Wall time of the traced operations, and the mean wall time of the
     untraced ones, in seconds. *)
  let traced_split t =
    let sum = ref 0. and un_sum = ref 0. and un_n = ref 0 in
    for i = 0 to t.raw.n - 1 do
      if t.traced.a.(i) > 0. then sum := !sum +. t.raw.a.(i)
      else begin
        un_sum := !un_sum +. t.raw.a.(i);
        incr un_n
      end
    done;
    (!sum, if !un_n = 0 then 0. else !un_sum /. float_of_int !un_n)
end

(* The end-to-end metrics every workload reports the same way.  The
   raw p50 and the reference's own time go to stderr. *)
let end_to_end_metrics refr ops ~setup_s ~energy_over_lb =
  let latencies = Ops.scaled_ms ops refr in
  let probe q = Samples.quantile refr.Reference.times q in
  Printf.eprintf
    "[perfbench] reference work p10/p50/p90 %.3f/%.3f/%.3f ms over %d probes; raw p50 %.4g ms\n%!"
    (probe 0.1) (probe 0.5) (probe 0.9) refr.Reference.times.Samples.n
    (1e3 *. Samples.quantile ops.Ops.raw 0.5);
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", Samples.quantile latencies 0.5);
    ("latency_p90_ms", Samples.quantile latencies 0.9);
    ("latency_p99_ms", Samples.quantile latencies 0.99);
    ("throughput_per_s", float_of_int latencies.Samples.n /. (Samples.sum latencies /. 1e3));
    ("peak_rss_mb", peak_rss_mb ());
    ("energy_over_lb", energy_over_lb);
  ]

(* Which operations a traced run traces: half of them, drawn from a
   stream of their own so that the choice never lines up with a period
   of the workload's generator. *)
let trace_picker o =
  let rng = Dcn_util.Prng.create ((o.seed * 7919) + 0x7ace) in
  fun () -> o.trace && Dcn_util.Prng.float rng 1. < 0.5

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* ------------------------------ tracing ------------------------------ *)

(* Per-layer aggregates of the program's own spans and counters.  Each
   operation's records are folded in and dropped right after it, outside
   its timing, so a long traced run holds one operation's records at a
   time. *)
module Layers = struct
  type span = {
    mutable calls : int;
    mutable total_ms : float;
    mutable self_ms : float;
    mutable minor_words : float;
  }

  type t = {
    trace : Trace.t;
    spans : (string, span) Hashtbl.t;
    counters : (string, float) Hashtbl.t;
  }

  let create () =
    { trace = Trace.create (); spans = Hashtbl.create 16; counters = Hashtbl.create 16 }

  let span t name =
    match Hashtbl.find_opt t.spans name with
    | Some s -> s
    | None ->
      let s = { calls = 0; total_ms = 0.; self_ms = 0.; minor_words = 0. } in
      Hashtbl.add t.spans name s;
      s

  let absorb t =
    let p = Profile.of_trace t.trace in
    List.iter
      (fun (st : Profile.span_stat) ->
        let s = span t st.name in
        s.calls <- s.calls + st.count;
        s.total_ms <- s.total_ms +. (st.total_ns /. 1e6);
        s.self_ms <- s.self_ms +. (st.self_ns /. 1e6);
        s.minor_words <- s.minor_words +. st.minor_words)
      p.spans;
    List.iter
      (fun (name, v) ->
        Hashtbl.replace t.counters name
          (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name)))
      (Trace.counters t.trace);
    Trace.clear t.trace

  let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)
  let calls t name = float_of_int (span t name).calls
  let total_ms t name = (span t name).total_ms
  let self_ms t name = (span t name).self_ms
  let minor_words t name = (span t name).minor_words

  (* Run [f] with this collector installed. *)
  let traced t f = Trace.with_trace t.trace f
end

let ratio a b = if b > 0. then a /. b else 0.

(* Layer metrics every workload reports the same way, per traced
   operation. *)
let common_layer_metrics (l : Layers.t) ~ops ~e2e_ms =
  let per_op x = ratio x (float_of_int ops) in
  [
    ("fw.kernel_ms_per_op", per_op (Layers.total_ms l "fw.kernel"));
    ("fw.kernel_share", ratio (Layers.total_ms l "fw.kernel") e2e_ms);
    ("fw.iters_per_op", per_op (Layers.counter l "fw.iters"));
    ("fw.iters_per_solve", ratio (Layers.counter l "fw.iters") (Layers.calls l "fw.solve"));
    ("fw.kernel_minor_words_per_op", per_op (Layers.minor_words l "fw.kernel"));
    ( "relaxation.self_ms_per_op",
      per_op (Layers.self_ms l "relaxation.solve" +. Layers.self_ms l "relaxation.resolve") );
    ("rs.self_ms_per_op", per_op (Layers.self_ms l "rs.solve"));
    ("rs.attempts_per_op", per_op (Layers.counter l "rs.attempts"));
    ( "rs.feasible_share",
      ratio (Layers.counter l "rs.feasible_attempts") (Layers.counter l "rs.attempts") );
  ]

(* Per-layer times are scaled to reference time with the run-wide
   factor; counts, shares and ratios are left as they are. *)
let layer_metrics refr values =
  let k = Reference.run_scale refr in
  List.map
    (fun (name, v) ->
      match List.find_opt (fun (d : Metrics.decl) -> d.name = name) Metrics.per_layer with
      | Some { Metrics.unit = "ms" | "us"; _ } -> (name, v *. k)
      | _ -> (name, v))
    values

(* Breakdown of the traced end-to-end time into exclusive layer times,
   on stderr: every span's self time, the layers the benchmark times
   itself outside the program's spans, and the remainder. *)
let print_breakdown ~workload ~ops ~e2e_ms (l : Layers.t) bench_layers ~unattributed_ms =
  Printf.eprintf "[perfbench] %s traced breakdown over %d ops (%.1f ms):\n" workload ops e2e_ms;
  let row name ms =
    Printf.eprintf "  %-28s %10.3f ms/op %6.1f%%\n" name
      (ratio ms (float_of_int ops))
      (100. *. ratio ms e2e_ms)
  in
  List.iter (fun (name, ms) -> row name ms) bench_layers;
  Hashtbl.fold (fun name (s : Layers.span) acc -> (name, s.self_ms) :: acc) l.spans []
  |> List.sort compare
  |> List.iter (fun (name, ms) -> row (name ^ " (self)") ms);
  row "unattributed" unattributed_ms;
  flush stderr

(* ------------------------------ fig2-batch ---------------------------- *)

let fig2_min_ops = 100
let fig2_warmup = 5

let fig2_rs_config =
  {
    Dcn_core.Random_schedule.attempts = 20;
    fw_config = Dcn_experiments.Fig2.experiment_fw_config;
  }

type fig2_op = {
  instance : Instance.t;
  solution : Solution.t;
  lb : Dcn_core.Lower_bound.t;
}

(* One batch operation: Random-Schedule, then the LB from its
   relaxation.  Also returns the LB step's own time. *)
let fig2_solve ~kernel (instance, rng) =
  let solution =
    Dcn_core.Random_schedule.solve ~config:fig2_rs_config ~instance
      ~workspace:(Dcn_core.Solver_api.workspace ~rng ~kernel ())
      ~deadline:Dcn_engine.Deadline.never ()
  in
  let lb, lb_s =
    timed (fun () ->
        Dcn_core.Lower_bound.of_relaxation (Option.get (Solution.relaxation solution)))
  in
  ({ instance; solution; lb }, lb_s)

(* The correctness gate of one batch solution: certified against its
   instance and LB, feasible, and every deadline met in the fluid
   simulator. *)
let fig2_check op =
  Dcn_check.Certify.solution ~lower_bound:op.lb.Dcn_core.Lower_bound.value op.instance
    op.solution
  = []
  && op.solution.Solution.feasible
  && (Dcn_sim.Fluid.run op.solution.Solution.schedule).Dcn_sim.Fluid.all_deadlines_met

let fig2_batch o =
  let refr = Reference.create () in
  let attempted = ref 0 and failed = ref 0 in
  let check op =
    incr attempted;
    if not (fig2_check op) then incr failed
  in
  (* Set-up: topology, a fresh kernel workspace, and warm-up instances
     (negative indices of [Gen.setup_seed]) that size the workspace
     arenas. *)
  let (graph, kernel), setup_s =
    repeat_setup refr
      ~build:(fun () ->
        let graph = Gen.fig2_graph () in
        let kernel = Dcn_mcf.Kernel.Workspace.create () in
        for index = -fig2_warmup to -1 do
          check (fst (fig2_solve ~kernel (Gen.fig2_instance ~graph ~seed:Gen.setup_seed ~index)));
          Reference.tick refr
        done;
        (graph, kernel))
      ~dispose:ignore
  in
  let ops = Ops.create () in
  let ratios = Samples.create () in
  let layers = Layers.create () in
  let lb_ms = ref 0. in
  let traced_ops = ref 0 in
  let pick = trace_picker o in
  let start = now () in
  let index = ref 0 in
  while keep_going ~start ~seconds:o.seconds ~min_ops:fig2_min_ops !index do
    incr index;
    let input = Gen.fig2_instance ~graph ~seed:o.seed ~index:!index in
    (* A traced run traces half the operations; the untraced ones are
       the baseline of trace.overhead. *)
    let tracing = pick () in
    let t0 = now () in
    (match
       if tracing then timed (fun () -> Layers.traced layers (fun () -> fig2_solve ~kernel input))
       else timed (fun () -> fig2_solve ~kernel input)
     with
    | exception e ->
      incr attempted;
      incr failed;
      prerr_endline ("[perfbench] fig2-batch failure: " ^ Printexc.to_string e)
    | (op, lb_s), dt ->
      Ops.add ops ~t0 ~dt ~traced:tracing;
      if tracing then begin
        Layers.absorb layers;
        lb_ms := !lb_ms +. (1e3 *. lb_s);
        incr traced_ops
      end;
      if !index <= fig2_min_ops then
        Samples.add ratios
          (op.solution.Solution.energy /. op.lb.Dcn_core.Lower_bound.value);
      check op);
    Reference.tick refr
  done;
  Reference.probe refr;
  let metrics =
    if not o.trace then
      end_to_end_metrics refr ops ~setup_s ~energy_over_lb:(Samples.mean ratios)
    else begin
      let n = !traced_ops in
      let traced_s, untraced_mean = Ops.traced_split ops in
      let e2e_ms = 1e3 *. traced_s in
      let layer_ms =
        Layers.total_ms layers "relaxation.solve" +. Layers.total_ms layers "rs.solve" +. !lb_ms
      in
      let unattributed_ms = Float.max 0. (e2e_ms -. layer_ms) in
      print_breakdown ~workload:"fig2-batch" ~ops:n ~e2e_ms layers
        [ ("lb (bench)", !lb_ms) ] ~unattributed_ms;
      Printf.eprintf "[perfbench] fig2-batch traced %d of %d instances\n%!" n ops.raw.n;
      layer_metrics refr
        (common_layer_metrics layers ~ops:n ~e2e_ms
        @ [
            ( "relaxation.intervals_per_op",
              ratio (Layers.calls layers "fw.solve") (float_of_int n) );
            ("session.reused_share", 0.);
            ("certify.ms_per_event", 0.);
            ("certify.calls_per_event", 0.);
            ("session.self_ms_per_event", 0.);
            ("session.minor_words_per_event", 0.);
            ("session.apply_ms_p50", 0.);
            ("session.apply_ms_p99", 0.);
            ("wal.append_ms_p50", 0.);
            ("wal.append_ms_p99", 0.);
            ("wal.bytes_per_event", 0.);
            ("checkpoint.ms_mean", 0.);
            ("checkpoint.bytes_mean", 0.);
            ("event.parse_us_p50", 0.);
            ("reply.encode_us_p50", 0.);
            ("lb.ms_per_op", ratio !lb_ms (float_of_int n));
            ("rejected_share", 0.);
            ("unattributed_share", ratio unattributed_ms e2e_ms);
            ("trace.overhead", ratio (ratio traced_s (float_of_int n)) untraced_mean);
          ])
    end
  in
  { correct = !failed = 0; attempted = !attempted; failed = !failed; metrics }

(* ------------------------------ serving ------------------------------ *)

let policy = Dcn_resilience.Repair.Drop_latest_deadline
let session_config = Session.default_config
let checkpoint_every = 50
let energy_sample_every = 100

(* The reply line [dcn serve] writes for an event, minus its [seq] and
   [uptime_ms] stamps. *)
let reply_json event outcome =
  Json.Obj
    (("event", Json.Str (Event.kind event))
     ::
     (match Session.outcome_to_json outcome with
     | Json.Obj fields -> fields
     | j -> [ ("outcome", j) ]))

let parse_event line =
  match Json.parse line with
  | Error e -> failwith (Json.parse_error_to_string e)
  | Ok json -> (
    match Event.of_json json with Ok ev -> ev | Error m -> failwith m)

let is_admission_rejection reason =
  let key = "no feasible" in
  let n = String.length reason and k = String.length key in
  let rec at i = i + k <= n && (String.sub reason i k = key || at (i + 1)) in
  at 0

(* Mirrors the committed flow set from outcomes alone, so every outcome
   can be checked: an epoch must certify, and a rejection must be either
   an admission decision or a cancel of a flow that is no longer
   committed (the open-loop generator cannot know it was refused, shed
   or retired).  Anything else is a failure. *)
module Tracker = struct
  type t = {
    live : (int, unit) Hashtbl.t;
    mutable ops : int;
    mutable failed : int;
    mutable arrivals : int;
    mutable rejected : int;  (** admission rejections *)
    mutable degraded : int;  (** arrivals admitted by dropping others *)
    mutable first_failure : string option;
  }

  let create () =
    {
      live = Hashtbl.create 64;
      ops = 0;
      failed = 0;
      arrivals = 0;
      rejected = 0;
      degraded = 0;
      first_failure = None;
    }

  let fail t msg =
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some msg

  let observe t event outcome =
    t.ops <- t.ops + 1;
    (match (event, outcome) with
    | (Event.Flow_arrival _ | Event.Coflow_arrival _), Session.Degraded _ ->
      t.arrivals <- t.arrivals + 1;
      t.degraded <- t.degraded + 1
    | (Event.Flow_arrival _ | Event.Coflow_arrival _), _ -> t.arrivals <- t.arrivals + 1
    | _ -> ());
    match outcome with
    | Session.Committed d | Session.Degraded d -> (
      if d.Session.violations <> [] then fail t "uncertified epoch";
      List.iter (fun (f : Flow.t) -> Hashtbl.remove t.live f.Flow.id) d.Session.dropped;
      List.iter (Hashtbl.remove t.live) d.Session.retired;
      match event with
      | Event.Flow_arrival f -> Hashtbl.replace t.live f.Flow.id ()
      | Event.Coflow_arrival { flows; _ } ->
        List.iter (fun (f : Flow.t) -> Hashtbl.replace t.live f.Flow.id ()) flows
      | Event.Flow_cancel { flow } -> Hashtbl.remove t.live flow
      | Event.Coflow_cancel _ | Event.Advance_clock _ -> ())
    | Session.Rejected { reason } -> (
      match event with
      | Event.Flow_cancel { flow } when not (Hashtbl.mem t.live flow) -> ()
      | (Event.Flow_arrival _ | Event.Coflow_arrival _) when is_admission_rejection reason ->
        t.rejected <- t.rejected + 1
      | _ -> fail t ("unexpected rejection: " ^ reason))

  (* End-of-run gate: the mirror agrees with the session, and every
     epoch certified. *)
  let finish t session =
    let committed =
      List.sort compare (List.map (fun (f : Flow.t) -> f.Flow.id) (Session.active_flows session))
    in
    let mirrored = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) t.live []) in
    if committed <> mirrored then fail t "committed flow set differs from the outcomes";
    if not (Session.ok session) then fail t "session reports uncertified epochs"
end

type serve_spec = {
  name : string;
  graph : Dcn_topology.Graph.t;
  power : Dcn_power.Model.t;
  durable : bool;
  stream : seed:int -> Gen.stream;
  prefix : int;
      (** timed events that energy_over_lb and rejected_share cover; at
          least 1000, for latency_p99_ms *)
}

let churn_spec () =
  {
    name = "serve-churn";
    graph = Gen.churn_graph ();
    power = Gen.churn_power;
    durable = true;
    stream = Gen.churn;
    prefix = 4000;
  }

let deep_spec () =
  {
    name = "serve-deep";
    graph = Gen.deep_graph ();
    power = Gen.deep_power;
    durable = false;
    stream = Gen.deep;
    prefix = 1000;
  }

(* Store.apply's order, spelled out so each step can be timed: WAL
   append (fsync'd) before the session applies the event, then a
   checkpoint and WAL rotation when one is due. *)
type manual = {
  dir : string;
  wal : Wal.writer;
  mutable seq : int;
  mutable since_checkpoint : int;
}

type backend =
  | Bare
  | Stored of Store.t
  | Manual of manual

type served = {
  session : Session.t;
  backend : backend;
  tracker : Tracker.t;
  gen : Gen.stream;
}

let open_backend spec o ~manual ~dir =
  let create () =
    Session.create ~config:session_config ~graph:spec.graph ~power:spec.power ~policy
      ~seed:o.seed ()
  in
  if not spec.durable then (create (), Bare)
  else begin
    rm_rf dir;
    mkdir_p dir;
    if manual then
      let wal = Wal.open_writer (Filename.concat dir "wal.log") in
      (create (), Manual { dir; wal; seq = 0; since_checkpoint = 0 })
    else
      match
        Store.open_ ~config:session_config ~dir ~checkpoint_every ~graph:spec.graph
          ~power:spec.power ~policy ~seed:o.seed ()
      with
      | Error m -> failwith ("perfbench: " ^ m)
      | Ok (store, _) -> (Store.session store, Stored store)
  end

let close_backend = function
  | Bare -> ()
  | Stored store -> Store.close store
  | Manual m -> Wal.close m.wal

(* One serve operation, from event line in to reply string out. *)
let serve_op s line =
  let event = parse_event line in
  let outcome =
    match s.backend with
    | Bare -> Session.apply s.session event
    | Stored store -> Store.apply store event
    | Manual _ -> invalid_arg "serve_op: the layered path times its own steps"
  in
  (event, outcome, Json.to_string (reply_json event outcome))

(* Clock readings around each step of one layered operation.  They are
   all the bookkeeping done inside its timing: the samples are added
   afterwards, by [record_steps]. *)
type stamps = {
  t0 : float;
  t1 : float;  (** parsed *)
  t2 : float;  (** WAL appended *)
  t3 : float;  (** applied *)
  t4 : float;  (** checkpoint written, if due *)
  t5 : float;  (** reply encoded *)
  checkpointed : bool;
}

(* The same operation as [serve_op], with each step's clock readings. *)
let serve_op_layered s line =
  let t0 = now () in
  let event = parse_event line in
  let t1 = now () in
  (match s.backend with
  | Manual m ->
    m.seq <- m.seq + 1;
    Wal.append m.wal ~seq:m.seq event
  | Bare -> ()
  | Stored _ -> invalid_arg "serve_op_layered: needs the manual durable path");
  let t2 = now () in
  let outcome = Session.apply s.session event in
  let t3 = now () in
  let checkpointed =
    match s.backend with
    | Manual m ->
      m.since_checkpoint <- m.since_checkpoint + 1;
      if m.since_checkpoint >= checkpoint_every then begin
        Checkpoint.write ~dir:m.dir ~seq:m.seq (Session.snapshot s.session);
        Wal.reset m.wal;
        m.since_checkpoint <- 0;
        true
      end
      else false
    | Bare | Stored _ -> false
  in
  let t4 = now () in
  let reply = Json.to_string (reply_json event outcome) in
  let t5 = now () in
  (event, outcome, reply, { t0; t1; t2; t3; t4; t5; checkpointed })

(* Per-layer samples of the traced operations. *)
type steps = {
  parse : Samples.t;  (** us *)
  wal : Samples.t;  (** ms *)
  wal_bytes : Samples.t;
  apply : Samples.t;  (** ms *)
  ckpt : Samples.t;  (** ms *)
  ckpt_bytes : Samples.t;
  encode : Samples.t;  (** us *)
}

let new_steps () =
  {
    parse = Samples.create ();
    wal = Samples.create ();
    wal_bytes = Samples.create ();
    apply = Samples.create ();
    ckpt = Samples.create ();
    ckpt_bytes = Samples.create ();
    encode = Samples.create ();
  }

(* Adds one traced operation's step times and sizes, outside its
   timing. *)
let record_steps st s event (c : stamps) =
  Samples.add st.parse (1e6 *. (c.t1 -. c.t0));
  Samples.add st.apply (1e3 *. (c.t3 -. c.t2));
  Samples.add st.encode (1e6 *. (c.t5 -. c.t4));
  match s.backend with
  | Manual m ->
    Samples.add st.wal (1e3 *. (c.t2 -. c.t1));
    Samples.add st.wal_bytes (float_of_int (String.length (Wal.encode ~seq:m.seq event)));
    if c.checkpointed then begin
      Samples.add st.ckpt (1e3 *. (c.t4 -. c.t3));
      Samples.add st.ckpt_bytes
        (float_of_int (Unix.stat (Checkpoint.path ~dir:m.dir)).Unix.st_size)
    end
  | Bare | Stored _ -> ()

(* energy_over_lb of the committed state: the committed schedule's
   energy over the lower bound of a cold relaxation of the committed
   flows. *)
let committed_energy_over_lb spec session =
  match (Session.active_flows session, Session.schedule session) with
  | [], _ | _, None -> None
  | flows, Some schedule ->
    let inst = Instance.make ~graph:spec.graph ~power:spec.power ~flows in
    let relax = Relaxation.solve ~fw_config:session_config.Session.fw_config inst in
    let lb = (Dcn_core.Lower_bound.of_relaxation relax).Dcn_core.Lower_bound.value in
    Some (Dcn_sched.Schedule.energy schedule /. lb)

(* Applies [gen]'s set-up events: the state every timed event starts
   from.  [tick] runs between events. *)
let serve_setup ?(tick = ignore) spec o ~manual ~dir =
  let session, backend = open_backend spec o ~manual ~dir in
  let s = { session; backend; tracker = Tracker.create (); gen = spec.stream ~seed:o.seed } in
  for _ = 1 to s.gen.Gen.setup_events do
    let line = Gen.event_line (s.gen.Gen.next ()) in
    let event, outcome, _ =
      if manual then
        let event, outcome, reply, _ = serve_op_layered s line in
        (event, outcome, reply)
      else serve_op s line
    in
    Tracker.observe s.tracker event outcome;
    tick ()
  done;
  s

let serve_dispose spec ~dir s =
  close_backend s.backend;
  if spec.durable then rm_rf dir

(* Event kinds of the traced and the untraced operations of a traced
   run: the two must be alike for trace.overhead to compare like with
   like. *)
let print_mix name mix =
  let kinds = List.sort_uniq compare (Hashtbl.fold (fun (k, _) _ acc -> k :: acc) mix []) in
  let count k traced = Option.value ~default:0 (Hashtbl.find_opt mix (k, traced)) in
  Printf.eprintf "[perfbench] %s event kinds, traced/untraced:%s\n%!" name
    (String.concat ""
       (List.map (fun k -> Printf.sprintf " %s %d/%d" k (count k true) (count k false)) kinds))

let serve spec o =
  let refr = Reference.create () in
  let dir = Filename.concat o.scratch spec.name in
  (* The traced run drives the durable path step by step; an untraced
     shadow session applies the same events and must produce the same
     replies. *)
  let manual = o.trace && spec.durable in
  let s, setup_s =
    repeat_setup refr
      ~build:(fun () -> serve_setup ~tick:(fun () -> Reference.tick refr) spec o ~manual ~dir)
      ~dispose:(serve_dispose spec ~dir)
  in
  let shadow =
    if manual then begin
      let shadow =
        Session.create ~config:session_config ~graph:spec.graph ~power:spec.power ~policy
          ~seed:o.seed ()
      in
      let gen = spec.stream ~seed:o.seed in
      for _ = 1 to gen.Gen.setup_events do
        ignore (Session.apply shadow (gen.Gen.next ()))
      done;
      Some shadow
    end
    else None
  in
  let ops = Ops.create () in
  let ratios = Samples.create () in
  let layers = Layers.create () in
  let steps = new_steps () in
  let mix = Hashtbl.create 8 in
  let pick = trace_picker o in
  let timed_rejected = ref 0 and timed_degraded = ref 0 and timed_arrivals = ref 0 in
  let committed_sum = ref 0 in
  let start = now () in
  let n_ops = ref 0 in
  while keep_going ~start ~seconds:o.seconds ~min_ops:spec.prefix !n_ops do
    incr n_ops;
    let line = Gen.event_line (s.gen.Gen.next ()) in
    let tracing = pick () in
    let t0 = now () in
    (match
       if not o.trace then
         let (event, outcome, reply), dt = timed (fun () -> serve_op s line) in
         ((event, outcome, reply, None), dt)
       else if not tracing then
         let (event, outcome, reply, _), dt = timed (fun () -> serve_op_layered s line) in
         ((event, outcome, reply, None), dt)
       else
         let (event, outcome, reply, stamps), dt =
           timed (fun () -> Layers.traced layers (fun () -> serve_op_layered s line))
         in
         ((event, outcome, reply, Some stamps), dt)
     with
    | exception e ->
      s.tracker.Tracker.ops <- s.tracker.Tracker.ops + 1;
      Tracker.fail s.tracker (Printexc.to_string e)
    | (event, outcome, reply, stamps), dt ->
      Ops.add ops ~t0 ~dt ~traced:tracing;
      Option.iter
        (fun c ->
          Layers.absorb layers;
          record_steps steps s event c)
        stamps;
      if o.trace then begin
        let key = (Event.kind event, tracing) in
        Hashtbl.replace mix key (1 + Option.value ~default:0 (Hashtbl.find_opt mix key))
      end;
      let t = s.tracker in
      let rejected = t.Tracker.rejected and degraded = t.degraded and arrivals = t.arrivals in
      Tracker.observe t event outcome;
      if !n_ops <= spec.prefix then begin
        timed_rejected := !timed_rejected + t.rejected - rejected;
        timed_degraded := !timed_degraded + t.degraded - degraded;
        timed_arrivals := !timed_arrivals + t.arrivals - arrivals;
        committed_sum := !committed_sum + Hashtbl.length t.live;
        if (not o.trace) && !n_ops mod energy_sample_every = 0 then
          Option.iter (Samples.add ratios) (committed_energy_over_lb spec s.session)
      end;
      Option.iter
        (fun shadow ->
          let expected = Json.to_string (reply_json event (Session.apply shadow event)) in
          if expected <> reply then
            Tracker.fail s.tracker (Printf.sprintf "traced reply differs at event %d" !n_ops))
        shadow);
    Reference.tick refr
  done;
  Reference.probe refr;
  Tracker.finish s.tracker s.session;
  let tracker = s.tracker in
  serve_dispose spec ~dir s;
  Option.iter
    (fun m -> prerr_endline ("[perfbench] " ^ spec.name ^ " failure: " ^ m))
    tracker.Tracker.first_failure;
  let prefix = min !n_ops spec.prefix in
  let rejected_share = ratio (float_of_int !timed_rejected) (float_of_int prefix) in
  Printf.eprintf
    "[perfbench] %s first %d timed events: %.1f committed flows on average; %d arrivals, \
     %.2f%% degraded, %.2f%% rejected; rejected_share %.4f\n%!"
    spec.name prefix
    (ratio (float_of_int !committed_sum) (float_of_int prefix))
    !timed_arrivals
    (100. *. ratio (float_of_int !timed_degraded) (float_of_int !timed_arrivals))
    (100. *. ratio (float_of_int !timed_rejected) (float_of_int !timed_arrivals))
    rejected_share;
  let metrics =
    if not o.trace then
      end_to_end_metrics refr ops ~setup_s ~energy_over_lb:(Samples.mean ratios)
    else begin
      print_mix spec.name mix;
      let n = steps.apply.n in
      let per_event x = ratio x (float_of_int n) in
      let traced_s, untraced_mean = Ops.traced_split ops in
      let e2e_ms = 1e3 *. traced_s in
      let bench_layers =
        [
          ("parse (bench)", Samples.sum steps.parse /. 1e3);
          ("wal.append (bench)", Samples.sum steps.wal);
          ("checkpoint (bench)", Samples.sum steps.ckpt);
          ("reply (bench)", Samples.sum steps.encode /. 1e3);
        ]
      in
      let covered =
        List.fold_left (fun acc (_, ms) -> acc +. ms) 0. bench_layers
        +. Layers.total_ms layers "serve.event"
      in
      let unattributed_ms = Float.max 0. (e2e_ms -. covered) in
      print_breakdown ~workload:spec.name ~ops:n ~e2e_ms layers bench_layers ~unattributed_ms;
      let resolved = Layers.counter layers "serve.resolved_intervals" in
      let reused = Layers.counter layers "serve.reused_intervals" in
      layer_metrics refr
        (common_layer_metrics layers ~ops:n ~e2e_ms
        @ [
            ("relaxation.intervals_per_op", per_event resolved);
            ("session.reused_share", ratio reused (resolved +. reused));
            ("certify.ms_per_event", per_event (Layers.total_ms layers "check.certify"));
            ("certify.calls_per_event", per_event (Layers.calls layers "check.certify"));
            ("session.self_ms_per_event", per_event (Layers.self_ms layers "serve.event"));
            ( "session.minor_words_per_event",
              per_event (Layers.minor_words layers "serve.event") );
            ("session.apply_ms_p50", Samples.quantile steps.apply 0.5);
            ("session.apply_ms_p99", Samples.quantile steps.apply 0.99);
            ("wal.append_ms_p50", Samples.quantile steps.wal 0.5);
            ("wal.append_ms_p99", Samples.quantile steps.wal 0.99);
            ("wal.bytes_per_event", Samples.mean steps.wal_bytes);
            ("checkpoint.ms_mean", Samples.mean steps.ckpt);
            ("checkpoint.bytes_mean", Samples.mean steps.ckpt_bytes);
            ("event.parse_us_p50", Samples.quantile steps.parse 0.5);
            ("reply.encode_us_p50", Samples.quantile steps.encode 0.5);
            ("lb.ms_per_op", 0.);
            ("rejected_share", rejected_share);
            ("unattributed_share", ratio unattributed_ms e2e_ms);
            ("trace.overhead", ratio (ratio traced_s (float_of_int n)) untraced_mean);
          ])
    end
  in
  {
    correct = tracker.Tracker.failed = 0;
    attempted = tracker.Tracker.ops;
    failed = tracker.Tracker.failed;
    metrics;
  }

(* Replies of the first [events] events of a workload's stream, applied
   exactly as the untraced run applies them — the benchmark side of the
   CLI cross-check. *)
let replies spec o ~events =
  let dir = Filename.concat o.scratch (spec.name ^ "-replies") in
  let session, backend = open_backend spec o ~manual:false ~dir in
  let s = { session; backend; tracker = Tracker.create (); gen = spec.stream ~seed:o.seed } in
  let out =
    List.init events (fun _ ->
        let _, _, reply = serve_op s (Gen.event_line (s.gen.Gen.next ())) in
        reply)
  in
  serve_dispose spec ~dir s;
  out

let names = [ "fig2-batch"; "serve-churn"; "serve-deep" ]

let serve_spec = function
  | "serve-churn" -> Some (churn_spec ())
  | "serve-deep" -> Some (deep_spec ())
  | _ -> None

let run name o =
  match name with
  | "fig2-batch" -> fig2_batch o
  | _ -> (
    match serve_spec name with
    | Some spec -> serve spec o
    | None -> invalid_arg ("unknown workload " ^ name))
