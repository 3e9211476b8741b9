(* Exact allocation counters for the regression gates.

   [words_of_second_call f] is the number of words the second of two
   [f ()] calls allocates: minor words plus those allocated straight
   into the major heap (large arrays), from the runtime's exact
   counters. The first call absorbs lazy set-up; the measured call
   starts on an empty minor heap, because a minor collection that lands
   early inside it inflates the count. The minor count comes from
   [Gc.minor_words]: on OCaml 5.1 the minor field of [Gc.counters]
   divides the words still in the minor heap by the word size. *)

let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_of_second_call f =
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

(* The pinned case the counter gates share: residential seed 77, flow
   0 -> 9 over the hybrid graph. *)
let residential_case =
  lazy
    (let inst = Residential.generate (Rng.create 77) in
     let g = Builder.graph inst Builder.Hybrid in
     (inst, g, Domain.of_instance inst Builder.Hybrid g))

(* Fail unless [f] allocates at most [budget] words on its second call.
   Each budget is the count measured when the gate was pinned: runs are
   deterministic, so any growth is a real new allocation. *)
let check_words ~budget name f =
  let w = words_of_second_call f in
  if w > budget then
    Alcotest.failf "%s allocated %.0f words (budget %.0f)" name w budget
