(* What every workload shares: the tenant catalogue, seeded input draws,
   and the record an episode hands to the reporter. *)

module Rng = Cm_util.Rng
module Pool = Cm_workload.Pool
module Tag = Cm_tag.Tag

(* The tenant catalogue is part of the system under test, not of the
   workload: it stays the paper's bing-like pool at its default seed, so
   that [--seed] varies arrivals, lifetimes, sampled pairs and traffic
   drift only. *)
let pool_seed = 42
let bmax = 800.
let pool () = Pool.scale_to_bmax (Pool.bing_like ~seed:pool_seed ()) ~bmax

(* Likewise the warm fill: every seed starts from the same steady-state
   datacenter, so seeds differ in what happens during the timed epochs
   rather than in the tenant mix they happen to start from. *)
let fixture_seed = 7

(* Arrivals take tenants from the pool in shuffled rounds, each pool
   tenant once per round: in the long run the paper's uniform draw, but
   every seed sees the same tenant mix within an episode, so seeds
   differ in arrival order, batch sizes and lifetimes rather than in
   how many of the largest tenants they happened to draw. *)
type deck = { rng : Rng.t; tags : Tag.t array; order : int array; mutable next : int }

let deck rng (pool : Pool.t) =
  let n = Array.length pool.Pool.tags in
  { rng; tags = pool.Pool.tags; order = Array.init n Fun.id; next = n }

let draw d =
  if d.next = Array.length d.order then begin
    Rng.shuffle d.rng d.order;
    d.next <- 0
  end;
  d.next <- d.next + 1;
  d.tags.(d.order.(d.next - 1))

let poisson rng ~mean =
  let rec go k t =
    let t = t +. Rng.exponential rng ~rate:mean in
    if t > 1. then k else go (k + 1) t
  in
  go 0 0.

(* Lifetime in epochs, >= 1, geometric with the given mean. *)
let lifetime rng ~mean =
  let q = 1. /. mean in
  1 + int_of_float (Float.log (1. -. Rng.uniform rng) /. Float.log (1. -. q))


let now = Spans.now

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* One episode: set-up, then a fixed, seed-determined sequence of timed
   epochs.  Repeating an episode at the same seed must reproduce
   [digest] exactly. *)
type episode = {
  setup_s : float;
  epoch_s : float array;  (** CPU time of each timed epoch. *)
  admit_s : float array;  (** Admission latency of each decision. *)
  episode_s : float;  (** CPU time of all timed epochs. *)
  decisions : int;
  refused : int;
  offered_bw : float;
  refused_bw : float;
  digest : string;
  checks : (string * bool) list;  (** Empty unless checking was asked. *)
  layers : metric list;  (** Per-layer metrics; traced episodes only. *)
  spans : Spans.t;
}

let per n x = if n = 0 then 0. else x /. float_of_int n
let ms s = 1e3 *. s
let us s = 1e6 *. s
