(* Tests for Dcn_mcf: the Frank-Wolfe convex MCF solver is checked
   against closed-form optima on parallel-link and line networks, its
   own duality gap, and flow-conservation invariants; the
   Raghavan-Tompson decomposition must recompose to the fractional
   solution. *)

open Dcn_mcf
module Graph = Dcn_topology.Graph
module Builders = Dcn_topology.Builders

let quad = ((fun x -> x *. x), fun x -> 2. *. x)

let problem ?(capacity = infinity) ?(cost = quad) graph commodities =
  let c, c' = cost in
  { Frank_wolfe.graph; commodities = Array.of_list commodities; cost = c;
    cost_deriv = c'; capacity }

let commodity ~index ~src ~dst ~demand = Commodity.make ~index ~src ~dst ~demand

(* Net flow out of a node for one commodity. *)
let net_out g flow v =
  let out = Array.fold_left (fun acc l -> acc +. flow.(l)) 0. (Graph.out_links g v) in
  let inc = Array.fold_left (fun acc l -> acc +. flow.(l)) 0. (Graph.in_links g v) in
  out -. inc

let test_commodity_invalid () =
  let invalid f = Alcotest.(check bool) "invalid" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  invalid (fun () -> commodity ~index:0 ~src:0 ~dst:0 ~demand:1.);
  invalid (fun () -> commodity ~index:0 ~src:0 ~dst:1 ~demand:0.)

let test_fw_line_forced_route () =
  (* On a line there is a single route: cost = hops * cost(demand). *)
  let g = Builders.line 4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:3 ~demand:5. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check (float 1e-6)) "cost = 3 * 25" 75. s.Frank_wolfe.cost;
  Alcotest.(check bool) "gap tiny" true (s.Frank_wolfe.gap < 1e-3)

let test_fw_parallel_even_split () =
  (* Quadratic cost on k parallel links: optimal split is even.
     demand 8 over 4 links -> 4 * (8/4)^2 = 16. *)
  let g = Builders.parallel ~links:4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:8. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f close to 16" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 16.) /. 16. < 0.02);
  (* Each of the 4 forward links carries about 2. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "balanced" true
        (Float.abs (s.Frank_wolfe.loads.(l) -. 2.) < 0.15))
    (Graph.links_between g ~src:0 ~dst:1)

let test_fw_two_commodities_share () =
  (* Two opposite commodities on the same parallel pair use opposite
     directed links and do not interact. *)
  let g = Builders.parallel ~links:2 in
  let p =
    problem g
      [
        commodity ~index:0 ~src:0 ~dst:1 ~demand:4.;
        commodity ~index:1 ~src:1 ~dst:0 ~demand:2.;
      ]
  in
  let s = Frank_wolfe.solve p in
  (* 2*(4/2)^2 + 2*(2/2)^2 = 8 + 2 = 10 *)
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f close to 10" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 10.) /. 10. < 0.02)

let test_fw_lower_bound () =
  let g = Builders.parallel ~links:3 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:6. ] in
  let s = Frank_wolfe.solve p in
  let lb = Frank_wolfe.lower_bound_cost p s in
  (* true optimum is 3 * 4 = 12 *)
  Alcotest.(check bool) "lb below cost" true (lb <= s.Frank_wolfe.cost +. 1e-12);
  Alcotest.(check bool) "lb below optimum" true (lb <= 12. +. 1e-9);
  Alcotest.(check bool) "lb close to optimum" true (lb > 11.5)

let test_fw_capacity_overload_reported () =
  (* One link, demand above capacity: the penalty cannot reroute, so the
     overload must be reported. *)
  let g = Builders.parallel ~links:1 in
  let p = problem ~capacity:1. g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:1.5 ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool) "overload about 0.5" true
    (Float.abs (s.Frank_wolfe.max_overload -. 0.5) < 1e-6)

let test_fw_capacity_respected_when_possible () =
  (* Three links with capacity 3 and demand 6: even split respects. *)
  let g = Builders.parallel ~links:3 in
  let p = problem ~capacity:3. g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:6. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool) "within capacity (tolerance)" true
    (s.Frank_wolfe.max_overload < 0.05)

let test_fw_quartic_even_split () =
  (* x^4 on 4 parallel links, demand 8: optimum 4 * 2^4 = 64. *)
  let g = Builders.parallel ~links:4 in
  let quartic = ((fun x -> x ** 4.), fun x -> 4. *. (x ** 3.)) in
  let p = problem ~cost:quartic g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:8. ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.3f close to 64" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 64.) /. 64. < 0.03)

let test_fw_envelope_cost () =
  (* The fixed-charge envelope: sigma = 4, mu = 1, alpha = 2 gives
     r_opt = 2 and a linear segment of slope 4 below it.  A demand of 2
     on 2 parallel links costs 8 however it is split (the envelope is
     linear there), so Frank-Wolfe must find cost ~8. *)
  let model = Dcn_power.Model.make ~sigma:4. ~mu:1. ~alpha:2. () in
  let g = Builders.parallel ~links:2 in
  let p =
    problem
      ~cost:(Dcn_power.Model.envelope model, Dcn_power.Model.envelope_deriv model)
      g
      [ commodity ~index:0 ~src:0 ~dst:1 ~demand:2. ]
  in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.4f close to 8" s.Frank_wolfe.cost)
    true
    (Float.abs (s.Frank_wolfe.cost -. 8.) < 0.05)

let test_fw_empty_commodities () =
  let g = Builders.line 2 in
  Alcotest.(check bool) "raises" true
    (try ignore (Frank_wolfe.solve (problem g [])); false
     with Invalid_argument _ -> true)

let test_fw_fat_tree_host_links_forced () =
  (* In a fat-tree every host has one uplink: the commodity's full
     demand must appear there no matter how the core splits. *)
  let g = Builders.fat_tree 4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:15 ~demand:3. ] in
  let s = Frank_wolfe.solve p in
  let up = (Graph.out_links g 0).(0) in
  Alcotest.(check (float 1e-6)) "host uplink carries demand" 3. s.Frank_wolfe.loads.(up);
  Alcotest.(check bool) "converged" true
    (s.Frank_wolfe.gap < 1e-3 *. Float.max 1. s.Frank_wolfe.cost)

let test_fw_fat_tree_beats_single_path () =
  (* With quadratic cost, splitting across the 4 disjoint cross-pod
     routes beats any single path: single-path cost = 6 * d^2; the
     4 middle hops can be split 4 ways. *)
  let g = Builders.fat_tree 4 in
  let d = 4. in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:15 ~demand:d ] in
  let s = Frank_wolfe.solve p in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.3f < single-path %.3f" s.Frank_wolfe.cost (6. *. d *. d))
    true
    (s.Frank_wolfe.cost < 6. *. d *. d)

(* --- decomposition ------------------------------------------------ *)

let test_decompose_single_path () =
  let g = Builders.line 3 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:2 ~demand:2. ] in
  let s = Frank_wolfe.solve p in
  let paths = Decompose.run g ~src:0 ~dst:2 ~flow:s.Frank_wolfe.flows.(0) in
  Alcotest.(check int) "one path" 1 (List.length paths);
  Alcotest.(check (float 1e-6)) "full weight" 2. (Decompose.total_weight paths)

let test_decompose_parallel_split () =
  let g = Builders.parallel ~links:4 in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:8. ] in
  let s = Frank_wolfe.solve p in
  let paths = Decompose.run g ~src:0 ~dst:1 ~flow:s.Frank_wolfe.flows.(0) in
  Alcotest.(check bool) "several paths" true (List.length paths >= 2);
  Alcotest.(check bool) "weights sum to demand" true
    (Float.abs (Decompose.total_weight paths -. 8.) < 1e-6);
  List.iter
    (fun (wp : Decompose.weighted_path) ->
      Alcotest.(check bool) "valid path" true (Graph.is_path g ~src:0 ~dst:1 wp.links))
    paths

let test_decompose_cycle_cancelling () =
  (* Hand-build a flow with a spurious cycle on a 4-node line plus the
     path: the cycle must disappear, the path must survive. *)
  let g = Builders.line 4 in
  let flow = Array.make (Graph.num_links g) 0. in
  let set u v x =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l -> flow.(l) <- flow.(l) +. x
    | None -> Alcotest.fail "missing link"
  in
  set 0 1 1.;
  set 1 2 1.;
  set 2 3 1.;
  (* cycle 1 -> 2 -> 1 *)
  set 1 2 0.5;
  set 2 1 0.5;
  let paths = Decompose.run g ~src:0 ~dst:3 ~flow in
  Alcotest.(check (float 1e-9)) "path weight 1" 1. (Decompose.total_weight paths);
  List.iter
    (fun (wp : Decompose.weighted_path) ->
      Alcotest.(check int) "simple 3-hop path" 3 (List.length wp.links))
    paths

let test_decompose_dead_end_noise () =
  (* A dangling branch that conserves nothing is dropped silently. *)
  let g = Builders.star ~leaves:3 in
  let flow = Array.make (Graph.num_links g) 0. in
  let set u v x =
    match Graph.find_link g ~src:u ~dst:v with
    | Some l -> flow.(l) <- flow.(l) +. x
    | None -> Alcotest.fail "missing link"
  in
  (* hub is node 3; route 0 -> 3 -> 1 plus noise 0 -> 3 -> 2 (dead end
     at host 2 which is not the destination). *)
  set 0 3 1.1;
  set 3 1 1.;
  set 3 2 0.1;
  let paths = Decompose.run g ~src:0 ~dst:1 ~flow in
  Alcotest.(check bool) "recovers the real path" true
    (Float.abs (Decompose.total_weight paths -. 1.) < 0.2)

let test_decompose_empty () =
  let g = Builders.line 3 in
  let flow = Array.make (Graph.num_links g) 0. in
  Alcotest.(check int) "no flow, no paths" 0
    (List.length (Decompose.run g ~src:0 ~dst:2 ~flow))

(* --- properties --------------------------------------------------- *)

let random_problem seed =
  let rng = Dcn_util.Prng.create seed in
  let g = Builders.random_fabric ~switches:6 ~degree:3 ~hosts:8 ~seed in
  let hosts = Graph.hosts g in
  let nc = 1 + Dcn_util.Prng.int rng 5 in
  let commodities =
    List.init nc (fun index ->
        let src = Dcn_util.Prng.pick rng hosts in
        let rec dst () =
          let d = Dcn_util.Prng.pick rng hosts in
          if d = src then dst () else d
        in
        commodity ~index ~src ~dst:(dst ()) ~demand:(0.5 +. Dcn_util.Prng.float rng 5.))
  in
  (g, commodities)

let prop_fw_conservation =
  QCheck.Test.make ~name:"frank-wolfe: flows conserve at every node" ~count:40
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let s = Frank_wolfe.solve (problem g commodities) in
      List.for_all
        (fun (c : Commodity.t) ->
          let flow = s.Frank_wolfe.flows.(c.index) in
          let ok = ref true in
          for v = 0 to Graph.num_nodes g - 1 do
            let expected =
              if v = c.src then c.demand else if v = c.dst then -.c.demand else 0.
            in
            if Float.abs (net_out g flow v -. expected) > 1e-6 then ok := false
          done;
          !ok)
        commodities)

let prop_fw_gap_bounds_optimum =
  QCheck.Test.make ~name:"frank-wolfe: duality lower bound below cost" ~count:40
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let p = problem g commodities in
      let s = Frank_wolfe.solve p in
      Frank_wolfe.lower_bound_cost p s <= s.Frank_wolfe.cost +. 1e-9)

let prop_decompose_recomposes =
  QCheck.Test.make ~name:"decompose: paths recompose the link flows" ~count:40
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let s = Frank_wolfe.solve (problem g commodities) in
      List.for_all
        (fun (c : Commodity.t) ->
          let flow = s.Frank_wolfe.flows.(c.index) in
          let paths = Decompose.run g ~src:c.src ~dst:c.dst ~flow in
          let rebuilt = Array.make (Graph.num_links g) 0. in
          List.iter
            (fun (wp : Decompose.weighted_path) ->
              List.iter (fun l -> rebuilt.(l) <- rebuilt.(l) +. wp.weight) wp.links)
            paths;
          let ok = ref true in
          (* Decomposition may cancel opposite-direction pairs (cycles in
             the union of iterates), so the rebuilt flow is a lower
             envelope of the fractional one, never an excess. *)
          Array.iteri
            (fun l x -> if x > flow.(l) +. 1e-5 then ok := false)
            rebuilt;
          !ok
          && Float.abs (Decompose.total_weight paths -. c.demand) < 1e-5
          && List.for_all
               (fun (wp : Decompose.weighted_path) ->
                 Graph.is_path g ~src:c.src ~dst:c.dst wp.links && wp.weight > 0.)
               paths)
        commodities)

(* --- line search ---------------------------------------------------- *)

let test_line_search_full_step () =
  (* phi'(1) <= 0: the objective still falls at the far end, so the
     search takes the whole step after one evaluation. *)
  let theta, evals = Frank_wolfe.line_search ~iters:48 ~gap:2. (fun t -> t -. 2.) in
  Alcotest.(check (float 0.)) "full step" 1. theta;
  Alcotest.(check int) "one evaluation" 1 evals

let test_line_search_quadratic_exact () =
  (* x^2 on 3 parallel links, warm-started at loads x = (3, 2, 1): the
     all-or-nothing point is s = (0, 0, 6), phi' is linear, and the
     exact step is sum x (x - s) / sum (s - x)^2 = 8 / 38. *)
  let g = Builders.parallel ~links:3 in
  let links = Array.of_list (Graph.links_between g ~src:0 ~dst:1) in
  let warm_start _ =
    List.mapi
      (fun k l -> { Decompose.links = [ l ]; weight = float_of_int (3 - k) })
      (Array.to_list links)
  in
  let p = problem g [ commodity ~index:0 ~src:0 ~dst:1 ~demand:6. ] in
  let config = { Frank_wolfe.default_config with max_iters = 1 } in
  let s = Frank_wolfe.solve ~config ~warm_start p in
  let theta = (s.Frank_wolfe.loads.(links.(2)) -. 1.) /. 5. in
  Alcotest.(check (float 1e-12)) "closed-form step" (8. /. 38.) theta

(* The objective the solver minimises: a power model's envelope plus
   the default capacity penalty, with its derivative. *)
let penalised model =
  let cap = model.Dcn_power.Model.cap in
  let k = Frank_wolfe.default_config.penalty in
  let over x = Float.max 0. (x -. cap) in
  ( (fun x -> Dcn_power.Model.envelope model x +. (k *. over x *. over x)),
    fun x -> Dcn_power.Model.envelope_deriv model x +. (2. *. k *. over x) )

(* On random F-MCF problems (sigma zero or not, capacity infinite or
   finite, alpha in {2, 3, 4}), at a point a few Frank-Wolfe iterations
   in: the step the root-find accepts on Fig. 2's 24-evaluation budget
   is no worse than the one a 48-step golden-section search over the
   same segment accepts.  A finite capacity stays at or above r_opt,
   where the penalised envelope is convex. *)
let prop_line_search_vs_golden =
  QCheck.Test.make ~name:"frank-wolfe: line search no worse than golden section"
    ~count:80
    QCheck.(make (fun st -> 1 + QCheck.Gen.int_bound 100000 st))
    (fun seed ->
      let g, commodities = random_problem seed in
      let rng = Dcn_util.Prng.create (seed + 1) in
      let alpha = float_of_int (2 + Dcn_util.Prng.int rng 3) in
      let sigma =
        if Dcn_util.Prng.int rng 2 = 0 then 0. else 0.5 +. Dcn_util.Prng.float rng 4.
      in
      let model = Dcn_power.Model.make ~sigma ~mu:1. ~alpha () in
      let cap =
        if Dcn_util.Prng.int rng 2 = 0 then infinity
        else Dcn_power.Model.r_opt model +. 0.5 +. Dcn_util.Prng.float rng 3.
      in
      let model = Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () in
      let pc, pc' = penalised model in
      let p =
        problem ~capacity:cap
          ~cost:(Dcn_power.Model.envelope model, Dcn_power.Model.envelope_deriv model)
          g commodities
      in
      let config =
        { Frank_wolfe.default_config with max_iters = Dcn_util.Prng.int rng 6 }
      in
      let x = (Frank_wolfe.solve ~config p).Frank_wolfe.loads in
      let m = Array.length x in
      let w = Array.map pc' x in
      let tie = 1e-9 *. Float.max 1. (Array.fold_left Float.max 0. w) in
      let s = Array.make m 0. in
      List.iter
        (fun (c : Commodity.t) ->
          let tree =
            Dcn_topology.Paths.shortest_tree ~weight:(fun l -> w.(l) +. tie) g
              ~src:c.src
          in
          match Dcn_topology.Paths.extract_path g tree ~dst:c.dst with
          | Some path -> List.iter (fun l -> s.(l) <- s.(l) +. c.demand) path
          | None -> assert false)
        commodities;
      let at t e = ((1. -. t) *. x.(e)) +. (t *. s.(e)) in
      let phi t = Array.fold_left ( +. ) 0. (Array.init m (fun e -> pc (at t e))) in
      let dphi t =
        Array.fold_left ( +. ) 0.
          (Array.init m (fun e -> pc' (at t e) *. (s.(e) -. x.(e))))
      in
      let gap = -.dphi 0. in
      let phi0 = phi 0. in
      let accepted t = Float.min phi0 (phi t) in
      gap <= 0.
      ||
      let theta, _ = Frank_wolfe.line_search ~iters:24 ~gap dphi in
      let oracle = accepted (Golden_ref.minimise ~iters:48 phi) in
      accepted theta <= oracle +. (1e-9 *. Float.abs oracle))

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "mcf/frank_wolfe",
      [
        Alcotest.test_case "commodity invalid" `Quick test_commodity_invalid;
        Alcotest.test_case "line forced route" `Quick test_fw_line_forced_route;
        Alcotest.test_case "parallel even split" `Quick test_fw_parallel_even_split;
        Alcotest.test_case "two commodities" `Quick test_fw_two_commodities_share;
        Alcotest.test_case "duality lower bound" `Quick test_fw_lower_bound;
        Alcotest.test_case "capacity overload reported" `Quick
          test_fw_capacity_overload_reported;
        Alcotest.test_case "capacity respected" `Quick test_fw_capacity_respected_when_possible;
        Alcotest.test_case "quartic even split" `Quick test_fw_quartic_even_split;
        Alcotest.test_case "envelope cost" `Quick test_fw_envelope_cost;
        Alcotest.test_case "empty commodities" `Quick test_fw_empty_commodities;
        Alcotest.test_case "fat-tree host links forced" `Quick
          test_fw_fat_tree_host_links_forced;
        Alcotest.test_case "fat-tree beats single path" `Quick
          test_fw_fat_tree_beats_single_path;
        Alcotest.test_case "line search full step" `Quick test_line_search_full_step;
        Alcotest.test_case "line search quadratic exact" `Quick
          test_line_search_quadratic_exact;
        qt prop_fw_conservation;
        qt prop_fw_gap_bounds_optimum;
        qt prop_line_search_vs_golden;
      ] );
    ( "mcf/decompose",
      [
        Alcotest.test_case "single path" `Quick test_decompose_single_path;
        Alcotest.test_case "parallel split" `Quick test_decompose_parallel_split;
        Alcotest.test_case "cycle cancelling" `Quick test_decompose_cycle_cancelling;
        Alcotest.test_case "dead-end noise" `Quick test_decompose_dead_end_noise;
        Alcotest.test_case "empty flow" `Quick test_decompose_empty;
        qt prop_decompose_recomposes;
      ] );
  ]
