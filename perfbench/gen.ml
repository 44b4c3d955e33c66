module Prng = Dcn_util.Prng
module Graph = Dcn_topology.Graph
module Flow = Dcn_flow.Flow
module Event = Dcn_serve.Event
module Json = Dcn_engine.Json

(* ---------------------------- fig2-batch ---------------------------- *)

(* The middle point of [dcn fig2 --quick]: 40 flows on a k = 4
   fat-tree, power x^2 with sigma = 0. *)
let fig2_flows = 40
let fig2_graph () = Dcn_topology.Builders.fat_tree 4
let fig2_power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha:2. ()

(* One instance per (seed, index); the returned generator continues the
   instance's stream and feeds the solver's rounding draws, as in
   [Fig2.run_one]. *)
let fig2_instance ~graph ~seed ~index =
  let rng = Prng.create ((seed * 1_000_003) + index) in
  let flows =
    Dcn_flow.Workload.paper_random ~rng ~graph ~n:fig2_flows ()
  in
  (Dcn_core.Instance.make ~graph ~power:fig2_power ~flows, rng)

(* Set-up is the same work for every seed, so that setup_s times the
   same thing in every run: the warm-up instances and the leading
   events of a serve stream are drawn from [setup_seed], and only the
   timed part from the workload seed. *)
let setup_seed = 1

(* Continues [rng] as a fresh generator seeded with [seed]. *)
let reseed rng seed = Prng.set_state rng (Prng.state (Prng.create seed))

(* ---------------------------- serve streams -------------------------- *)

type stream = {
  setup_events : int;  (** leading events that build the steady state *)
  next : unit -> Event.t;  (** the stream, one event per call, endless *)
}

(* serve-churn: fat-tree k = 4, sigma = 1, cap 1.7.  Poisson arrivals
   (rate 1), each preceded by a clock advance that retires finished
   flows; windows U(15,35) keep ~25 flows committed, and densities
   U(0.15,0.45) against the cap make 3-5% of arrivals degrade and 5-6%
   reject (first 4000 timed events of seeds 1-4 and 7).
   One event in ten cancels a live plain flow; one arrival in ten is a
   coflow of 2-4 members sharing a window. *)
let churn_graph () = Dcn_topology.Builders.fat_tree 4
let churn_cap = 1.7
let churn_power = Dcn_power.Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:churn_cap ()
let churn_setup_events = 600

let churn ~seed =
  let graph = churn_graph () in
  let hosts = Graph.hosts graph in
  let rng = Prng.create setup_seed in
  let clock = ref 0. in
  let next_flow = ref 1 and next_coflow = ref 1 in
  (* Plain flows issued and not yet past their deadline: cancel targets.
     The generator never sees outcomes, so a target may have been
     rejected or shed; the session then refuses the cancel. *)
  let cancellable = ref [||] and n_cancellable = ref 0 in
  let push id deadline =
    if !n_cancellable = Array.length !cancellable then
      cancellable :=
        Array.append !cancellable
          (Array.make (max 16 !n_cancellable) (0, 0.));
    !cancellable.(!n_cancellable) <- (id, deadline);
    incr n_cancellable
  in
  let remove i =
    decr n_cancellable;
    !cancellable.(i) <- !cancellable.(!n_cancellable)
  in
  let rec take_cancel () =
    if !n_cancellable = 0 then None
    else
      let i = Prng.int rng !n_cancellable in
      let id, deadline = !cancellable.(i) in
      remove i;
      if deadline > !clock then Some id else take_cancel ()
  in
  let flow ~release ~deadline =
    let src = Prng.pick rng hosts in
    let rec other () =
      let d = Prng.pick rng hosts in
      if d = src then other () else d
    in
    let dst = other () in
    let density = Prng.uniform rng ~lo:0.15 ~hi:0.45 in
    let id = !next_flow in
    incr next_flow;
    Flow.make ~id ~src ~dst ~volume:(density *. (deadline -. release))
      ~release ~deadline
  in
  let pending_arrival = ref false in
  let arrival () =
    let release = !clock in
    let deadline = release +. Prng.uniform rng ~lo:15. ~hi:35. in
    if Prng.float rng 1. < 0.1 then begin
      let members = 2 + Prng.int rng 3 in
      let coflow = !next_coflow in
      incr next_coflow;
      Event.Coflow_arrival
        { coflow; flows = List.init members (fun _ -> flow ~release ~deadline) }
    end
    else begin
      let f = flow ~release ~deadline in
      push f.Flow.id deadline;
      Event.Flow_arrival f
    end
  in
  let step () =
    if !pending_arrival then begin
      pending_arrival := false;
      arrival ()
    end
    else
      match
        if Prng.float rng 1. < 0.1 then take_cancel () else None
      with
      | Some flow -> Event.Flow_cancel { flow }
      | None ->
        let gap = -.Float.log (1. -. Prng.float rng 1.) in
        clock := !clock +. gap;
        pending_arrival := true;
        Event.Advance_clock { clock = !clock }
  in
  let emitted = ref 0 in
  let next () =
    if !emitted = churn_setup_events then reseed rng seed;
    incr emitted;
    step ()
  in
  { setup_events = churn_setup_events; next }

(* serve-deep: ROADMAP's growth-stream distribution on line:5 (src/dst
   uniform, release U(0,50), window U(20,50), volume U(1,10)), sigma = 1,
   no cap.  Set-up preloads [deep_flows] arrivals; afterwards arrivals
   alternate with cancelling the oldest committed flow, so every timed
   event sees the same number of committed flows.  The clock never
   moves, so no flow retires. *)
let deep_graph () = Dcn_topology.Builders.line 5
let deep_power = Dcn_power.Model.make ~sigma:1. ~mu:1. ~alpha:2. ()
let deep_flows = 120

let deep ~seed =
  let rng = Prng.create setup_seed in
  let n = 5 in
  let next_flow = ref 1 in
  let issued = Queue.create () in
  let arrival () =
    let src = Prng.int rng n in
    let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
    let release = Prng.uniform rng ~lo:0. ~hi:50. in
    let deadline = release +. Prng.uniform rng ~lo:20. ~hi:50. in
    let volume = Prng.uniform rng ~lo:1. ~hi:10. in
    let id = !next_flow in
    incr next_flow;
    Queue.push id issued;
    Event.Flow_arrival (Flow.make ~id ~src ~dst ~volume ~release ~deadline)
  in
  let count = ref 0 in
  let next () =
    if !count = deep_flows then reseed rng seed;
    incr count;
    if !count <= deep_flows || (!count - deep_flows) mod 2 = 1 then arrival ()
    else Event.Flow_cancel { flow = Queue.pop issued }
  in
  { setup_events = deep_flows; next }

let event_line ev = Json.to_string (Event.to_json ev)

(* Events [write_events] writes: the length of the CLI cross-check,
   which covers the set-up events and the first timed ones. *)
let emit_events = 800

let write_events path stream =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for _ = 1 to emit_events do
        output_string oc (event_line (stream.next ()));
        output_char oc '\n'
      done)
