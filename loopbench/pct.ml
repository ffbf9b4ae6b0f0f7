(* Percentile summaries with a stated sample count.

   A tail percentile is only reported where at least [min_beyond]
   samples lie beyond it: with n samples, percentile q has
   n * (1 - q/100) samples above it, so the highest admissible q is
   100 * (1 - min_beyond / n), rounded down to a whole percent and
   capped at the requested one.  The median is the floor: a run too
   short for any tail reports p50 under its tail name, flagged by [q]. *)

type t = { q : int; value : float; n : int }

let min_beyond = 10

let highest_q ~target n =
  if n <= 0 then 50 else max 50 (min target (100 * (n - min_beyond) / n))

let at q samples =
  if Array.length samples = 0 then { q; value = nan; n = 0 }
  else
    { q; value = Cm_util.Stats.percentile samples (float_of_int q); n = Array.length samples }

let tail ~target samples = at (highest_q ~target (Array.length samples)) samples
let median samples = at 50 samples

let describe name t =
  Printf.sprintf "%s: p%d of %d samples" name t.q t.n
