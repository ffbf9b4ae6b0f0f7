(* Host speed, measured by a fixed reference kernel.

   A shared host runs the same code tens of percent slower in some
   phases than in others, in CPU time as in wall time, and a phase can
   outlast a run.  A run therefore also times a kernel of fixed work,
   before every episode and between epochs, at most every [period]
   seconds of CPU time and outside every timed span, and the reporter
   scales the run's times by [nominal / median kernel time]: they read
   as they would at the speed at which the kernel takes [nominal]
   seconds.  The kernel uses nothing from the libraries under test and
   allocates nothing (so it never runs a slice of the program's major
   GC): a change to the program moves the scaled times exactly as it
   moves the measured ones. *)

(* The kernel's median on a 2-vCPU Intel Xeon VM in its fast phase. *)
let nominal = 1.0e-3
let period = 0.1

(* Three parts, each small enough to stay in the core's private caches,
   so that the kernel sees the core's speed rather than the memory
   system's, which the host's slow phases barely move: a dependent
   multiply-add chain over 32 KiB of floats, an xorshift stream of
   table lookups and data-dependent branches over 16 KiB, and a pointer
   chase around a fixed single-cycle permutation of 256 KiB. *)
let floats = Array.init 4096 (fun i -> 1. +. (float_of_int i /. 4096.))
let table = Array.init 2048 (fun i -> (i * 2654435761) land 0xffff)

let chase =
  let n = 1 lsl 15 in
  let order = Array.init n Fun.id in
  Cm_util.Rng.shuffle (Cm_util.Rng.create 1) order;
  let next = Array.make n 0 in
  for i = 0 to n - 1 do
    next.(order.(i)) <- order.((i + 1) mod n)
  done;
  next

let kernel () =
  let acc = ref 0. in
  for _ = 1 to 32 do
    for i = 0 to 4095 do
      acc := (!acc *. 0.999) +. Array.unsafe_get floats i
    done
  done;
  let x = ref 88172645463325252 and s = ref 0 in
  for _ = 1 to 100_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let v = Array.unsafe_get table (!x land 2047) in
    if v land 1 = 0 then s := !s + v else s := !s lxor (v lsl 3)
  done;
  let p = ref 0 in
  for _ = 1 to 20_000 do
    p := Array.unsafe_get chase !p
  done;
  int_of_float !acc + !s + !p

let samples = ref []
let last = ref neg_infinity

(* The kernel runs once untimed first, so that the timed run finds its
   data in the caches and its branches trained whatever ran before: a
   cold run's time depends on how much of the kernel's data the
   workload's last epoch evicted. *)
let sample () =
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = Spans.now () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Spans.now () in
  samples := (t1 -. t0) :: !samples;
  last := t1

(* Called between epochs: samples when [period] has passed. *)
let tick () = if Spans.now () -. !last >= period then sample ()

let reset () =
  samples := [];
  last := neg_infinity

(* The factor that turns this run's measured times into times at the
   nominal speed, with the sample count it rests on. *)
let scale () =
  let s = Array.of_list !samples in
  (nominal /. (Pct.median s).Pct.value, Array.length s)
