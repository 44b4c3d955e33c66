(* Golden-section search, kept as a test oracle for the Frank-Wolfe line
   search: it uses only objective values, never the derivative, so it
   shares no machinery with the root-find it checks.  [iters]
   refinements shrink the bracket to golden^iters of [0, 1] (48 steps:
   ~1e-10). *)

let golden = (sqrt 5. -. 1.) /. 2.

(* Minimise a convex (hence unimodal) function on [0, 1]. *)
let minimise ~iters f =
  let a = ref 0. and b = ref 1. in
  let x1 = ref (1. -. golden) and x2 = ref golden in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  for _ = 1 to iters do
    if !f1 < !f2 then begin
      b := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !b -. (golden *. (!b -. !a));
      f1 := f !x1
    end
    else begin
      a := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !a +. (golden *. (!b -. !a));
      f2 := f !x2
    end
  done;
  (!a +. !b) /. 2.
