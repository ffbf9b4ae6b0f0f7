(* In-memory span recorder for the traced run.

   Spans are opened only by the benchmark's own code, around its calls
   into each library layer, always from the calling domain.  A span
   opened with no enclosing span is a root and starts a new trace id;
   every span under it shares that id.  Storage grows without bound, so
   nothing is ever dropped; the whole record is summarised and written
   out once the run is over.  A disabled recorder costs one branch. *)

type t = {
  enabled : bool;
  mutable n : int;
  mutable name : string array;
  mutable trace : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable words : float array;
  mutable stack : int list;
  mutable traces : int;
}

let create ~enabled =
  {
    enabled;
    n = 0;
    name = [||];
    trace = [||];
    parent = [||];
    t0 = [||];
    t1 = [||];
    words = [||];
    stack = [];
    traces = 0;
  }

let off = create ~enabled:false

external thread_cpu_ns : unit -> int64 = "loopbench_thread_cpu_ns"

(* Seconds of CPU time of the calling thread, at nanosecond resolution.
   Every timing is taken on this clock: the benchmark runs on one
   domain, so it equals wall time on a dedicated core, and leaves out
   the time a shared host gives the core to someone else. *)
let now () = Int64.to_float (thread_cpu_ns ()) *. 1e-9

(* Seconds on the monotonic clock, for the run's time budget. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let grow t =
  if t.n = Array.length t.name then begin
    let cap = max 1024 (2 * t.n) in
    let ext a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- ext t.name "";
    t.trace <- ext t.trace 0;
    t.parent <- ext t.parent 0;
    t.t0 <- ext t.t0 0.;
    t.t1 <- ext t.t1 0.;
    t.words <- ext t.words 0.
  end

let close t i =
  t.t1.(i) <- now ();
  t.words.(i) <- Gc.minor_words () -. t.words.(i);
  t.stack <- List.tl t.stack

let span t name f =
  if not t.enabled then f ()
  else begin
    grow t;
    let i = t.n in
    t.n <- i + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.trace.(i) <-
      (if parent >= 0 then t.trace.(parent)
       else begin
         t.traces <- t.traces + 1;
         t.traces
       end);
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.stack <- i :: t.stack;
    t.words.(i) <- Gc.minor_words ();
    t.t0.(i) <- now ();
    match f () with
    | v ->
        close t i;
        v
    | exception e ->
        close t i;
        raise e
  end

let dur t i = t.t1.(i) -. t.t0.(i)

(* Durations (seconds) and minor words of every span with this name. *)
let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.name.(i) = name then acc := dur t i :: !acc
  done;
  Array.of_list !acc

let total t name = Array.fold_left ( +. ) 0. (durations t name)

let words t name =
  let w = ref 0. in
  for i = 0 to t.n - 1 do
    if t.name.(i) = name then w := !w +. t.words.(i)
  done;
  !w

let count t name = Array.length (durations t name)

type layer = { layer : string; calls : int; total_s : float; self_s : float }

(* Per-name totals and self times (a span's duration minus the part its
   direct children cover), in first-seen order. *)
let layers t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. dur t i
  done;
  let order = ref [] and tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let nm = t.name.(i) in
    let calls, tot, self =
      match Hashtbl.find_opt tbl nm with
      | Some v -> v
      | None ->
          order := nm :: !order;
          (0, 0., 0.)
    in
    Hashtbl.replace tbl nm (calls + 1, tot +. dur t i, self +. dur t i -. child.(i))
  done;
  List.rev_map
    (fun nm ->
      let calls, total_s, self_s = Hashtbl.find tbl nm in
      { layer = nm; calls; total_s; self_s })
    !order

(* Share of root spans named [root] not covered by any child span. *)
let unattributed t ~root =
  match List.find_opt (fun l -> l.layer = root) (layers t) with
  | Some l when l.total_s > 0. -> l.self_s /. l.total_s
  | _ -> 0.

let write_chrome t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.t0.(0) else 0. in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"span\":%d,\"trace\":%d,\"parent\":%d,\"minor_words\":%.0f}}"
      t.name.(i)
      ((t.t0.(i) -. base) *. 1e6)
      (dur t i *. 1e6)
      i t.trace.(i) t.parent.(i) t.words.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
