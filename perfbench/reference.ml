(* The machine-speed reference.

   A shared host can change speed by a factor of two or more for minutes
   at a time, and a time taken in one such phase is not comparable with
   one taken in another.  So a run also times a fixed piece of work that
   belongs to the benchmark, not to the program, between operations
   ("probes"), and every time the benchmark reports is scaled by
   [nominal_ms / r], where [r] is the median probe time around the
   measured interval.  The result reads as the time the interval would
   have taken on a machine that runs the reference work in [nominal_ms].
   A change of the machine's speed moves both the interval and [r]; a
   change of the program moves only the interval.

   The work allocates nothing, so it never runs the GC, and its 32 KiB
   working set is brought into the L1 data cache by an untimed pass
   first, so its time does not depend on what the program left in the
   caches: integer and float arithmetic, branches, and a dependent chain
   of loads. *)

let cells = 2048
let mask = cells - 1
let passes = 120
let initial = Array.init cells (fun i -> float_of_int (i land 255) /. 256.)
let floats = Array.copy initial
let table = Array.init cells (fun i -> ((i * 1021) + 7) land mask)

(* Every call starts from the same values, so every probe does the same
   arithmetic however long the process has run: left to evolve, a cell
   that decays by 0.999 a pass reaches subnormal floats after ~700k
   passes, and those are many times slower. *)
let work passes =
  Array.blit initial 0 floats 0 cells;
  let acc = ref 0. and j = ref 1 in
  for _ = 1 to passes do
    for i = 0 to mask do
      j := Array.unsafe_get table ((!j + i) land mask);
      let y = (Array.unsafe_get floats i *. 0.999) +. (float_of_int (!j land 15) *. 1e-3) in
      Array.unsafe_set floats i (if y > 1. then y -. 1. else y);
      acc := !acc +. y
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* About the work's time on the 2-core x86-64 VM (Xeon, 2.1 GHz) the
   bounds in BENCHMARK.json were set on, where run medians ranged from
   0.75 to 1.05 ms. *)
let nominal_ms = 1.0

(* A probe every [interval] seconds of wall time; a scale is the median
   of the [window] probes nearest to the interval it scales. *)
let interval = 0.05
let window = 21

type t = {
  stamps : Metrics.Samples.t;  (** probe midpoints, increasing *)
  times : Metrics.Samples.t;  (** probe times, ms *)
  mutable last : float;
  mutable spent : float;  (** seconds spent probing so far *)
}

let create () =
  { stamps = Metrics.Samples.create (); times = Metrics.Samples.create (); last = neg_infinity;
    spent = 0. }

let probe t =
  let start = Unix.gettimeofday () in
  work 1;
  let t0 = Unix.gettimeofday () in
  work passes;
  let t1 = Unix.gettimeofday () in
  Metrics.Samples.add t.stamps ((t0 +. t1) /. 2.);
  Metrics.Samples.add t.times (1e3 *. (t1 -. t0));
  t.last <- t1;
  t.spent <- t.spent +. (t1 -. start)

(* Probes if [interval] has passed since the last probe. *)
let tick t = if Unix.gettimeofday () -. t.last >= interval then probe t

(* Index of the first probe at or after [at], by bisection. *)
let first_after t at =
  let stamps = t.stamps.Metrics.Samples.a in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if stamps.(mid) < at then go (mid + 1) hi else go lo mid
  in
  go 0 t.stamps.n

(* The factor that turns a time measured around [at] into reference
   time. *)
let scale t ~at =
  let n = t.times.Metrics.Samples.n in
  if n = 0 then invalid_arg "Reference.scale: no probes";
  let k = min window n in
  let centre = first_after t at in
  let lo = max 0 (min (n - k) (centre - (k / 2))) in
  nominal_ms /. Metrics.quantile (Array.sub t.times.Metrics.Samples.a lo k) 0.5

(* Times [f] with probes before, during (through [tick]) and after it,
   and returns its result and its reference time in seconds, probing
   time excluded. *)
let timed_phase t f =
  for _ = 1 to window / 2 do
    probe t
  done;
  let spent0 = t.spent in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  let dt = t1 -. t0 -. (t.spent -. spent0) in
  for _ = 1 to window / 2 do
    probe t
  done;
  (v, dt *. scale t ~at:((t0 +. t1) /. 2.))

(* The run-wide factor, for the per-layer times. *)
let run_scale t = nominal_ms /. Metrics.Samples.quantile t.times 0.5
