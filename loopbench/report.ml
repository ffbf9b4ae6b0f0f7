(* One benchmark run: repeat a workload's episode for the time budget,
   check every output, and print every metric by name with its unit.
   The last line of standard output is the JSON result. *)

open Common

(* End-to-end metrics, measured with tracing off, on every workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("epoch_ms_p50", "ms");
    ("epoch_ms_p90", "ms");
    ("episode_s", "s");
    ("decisions_per_s", "1/s");
    ("admit_ms_p50", "ms");
    ("admit_ms_p90", "ms");
    ("admit_rejected_frac", "ratio");
    ("bw_rejected_pct", "%");
  ]

(* Per-layer metrics of the traced run; a layer a workload bypasses
   reads 0 there. *)
let per_layer =
  [
    ("shard.batch_ms_p50", "ms");
    ("shard.batch_ms_p90", "ms");
    ("shard.us_per_decision", "us");
    ("shard.release_us", "us");
    ("shard.minor_words_per_decision", "words");
    ("shard.reject_no_slots", "count");
    ("shard.reject_no_bw", "count");
    ("tree.index_cleans_per_decision", "count");
    ("tree.index_marks_per_decision", "count");
    ("cm.us_per_decision", "us");
    ("ovoc.us_per_decision", "us");
    ("ovoc.share_of_wall", "ratio");
    ("cm.minor_words_per_decision", "words");
    ("ovoc.minor_words_per_decision", "words");
    ("gp.us_per_tenant", "us");
    ("gp.pairs_per_tenant", "count");
    ("inc.solve_ms_p50", "ms");
    ("inc.solve_ms_p90", "ms");
    ("inc.set_remove_us_per_op", "us");
    ("inc.resolved_frac", "ratio");
    ("inc.resolved_per_changed", "ratio");
    ("inc.components_per_solve", "count");
    ("inc.minor_words_per_resolved_flow", "words");
    ("stream.push_ms_p50", "ms");
    ("stream.push_ms_p90", "ms");
    ("stream.dirty_frac", "ratio");
    ("stream.full_frac", "ratio");
    ("stream.fallback_frac", "ratio");
    ("stream.drift_events", "count");
    ("stream.tag_ms", "ms");
    ("stream.minor_words_per_push", "words");
    ("reneg.count", "count");
    ("reneg.accepted_frac", "ratio");
    ("reneg.ms_p50", "ms");
    ("materialize.us_per_flow", "us");
    ("gen.ms_per_epoch", "ms");
    ("loop.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

type workload = {
  wname : string;
  root : string;  (** Root span of one epoch in the traced run. *)
  episode : seed:int -> traced:bool -> check:bool -> episode;
}

let workloads ~tiny =
  [
    {
      wname = "loop";
      root = "loop.epoch";
      episode = Loop.episode (if tiny then Loop.tiny else Loop.default);
    };
    {
      wname = "region-admit";
      root = "loop.epoch";
      episode = Region.episode (if tiny then Region.tiny else Region.default);
    };
    {
      wname = "fig8";
      root = "fig8.point";
      episode = Fig8.episode (if tiny then Fig8.tiny else Fig8.default);
    };
  ]

let find_workload ~tiny name = List.find_opt (fun w -> w.wname = name) (workloads ~tiny)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  checks : (string * bool) list;
  notes : string list;  (** Human-readable lines printed before the JSON. *)
  traced : episode option;
  scale : float;  (** Measured CPU time to time at the reference speed. *)
}

let median xs = (Pct.median (Array.of_list xs)).Pct.value

(* A time at the reference speed ([Reference]); other units as measured. *)
let at_nominal k m =
  match m.unit_ with
  | "s" | "ms" | "us" -> { m with value = m.value *. k }
  | "1/s" -> { m with value = m.value /. k }
  | _ -> m

(* Episodes run back to back until the next one would overrun
   [seconds].  Episode [i] of a run at seed [s] uses sub-seed [(s, i)],
   so a run averages over several independent arrival sequences.  The
   first episode runs every output check and warms the process up (heap
   growth, first-touch page faults): it is not timed.  The second
   repeats its sub-seed as the determinism witness, whose digest must be
   identical, and is timed like the rest.  An untraced run times at
   least three episodes, so that set-up time is a median; a traced run
   times the witness untraced, as the base of the tracing overhead, and
   then the same sub-seed traced.  The budget is on the wall clock;
   every time reported is CPU time at the reference speed. *)
let run ~seconds ~seed (w : workload) ~trace =
  Cm_util.Par.set_default_domains 1;
  Reference.reset ();
  let sub i = Hashtbl.hash (seed, i) in
  let t_start = Spans.wall () in
  let episode ~seed ~traced ~check =
    Reference.sample ();
    w.episode ~seed ~traced ~check
  in
  let first = episode ~seed:(sub 0) ~traced:false ~check:true in
  let eps = ref [ episode ~seed:(sub 0) ~traced:false ~check:false ] in
  let traced = if trace then Some (episode ~seed:(sub 0) ~traced:true ~check:false) else None in
  let count () = 1 + List.length !eps + if trace then 1 else 0 in
  let elapsed () = Spans.wall () -. t_start in
  while
    (not trace)
    && (List.length !eps < 3 || elapsed () +. (elapsed () /. float_of_int (count ())) <= seconds)
  do
    eps := episode ~seed:(sub (List.length !eps)) ~traced:false ~check:false :: !eps
  done;
  let k, samples = Reference.scale () in
  let eps = List.rev !eps in
  let witness = List.hd eps in
  let digests = List.map (fun e -> e.digest) (witness :: Option.to_list traced) in
  let checks =
    first.checks
    @ Option.fold ~none:[] ~some:(fun (t : episode) -> t.checks) traced
    @ [ ("determinism.same_digest_at_same_seed", List.for_all (( = ) first.digest) digests) ]
  in
  let pooled f = Array.concat (List.map f eps) in
  let epochs = pooled (fun e -> e.epoch_s) and admits = pooled (fun e -> e.admit_s) in
  let e50 = Pct.median epochs and e90 = Pct.tail ~target:90 epochs in
  let a50 = Pct.median admits and a90 = Pct.tail ~target:90 admits in
  let sum ?(eps = eps) f = List.fold_left (fun acc e -> acc +. f e) 0. eps in
  (* Refusals over the three sub-seeds every run has, so that they are
     a function of the seed alone. *)
  let fixed = List.filteri (fun i _ -> i < 3) eps in
  let e2e =
    if trace then []
    else
      [
        metric "setup_s" "s" (median (List.map (fun e -> e.setup_s) eps));
        metric "epoch_ms_p50" "ms" (ms e50.Pct.value);
        metric "epoch_ms_p90" "ms" (ms e90.Pct.value);
        (* A mean, not a median: a run has as few as three episodes, and
           a median of three discards two thirds of the timed work. *)
        metric "episode_s" "s" (sum (fun e -> e.episode_s) /. float_of_int (List.length eps));
        metric "decisions_per_s" "1/s"
          (sum (fun e -> float_of_int e.decisions) /. sum (fun e -> e.episode_s));
        metric "admit_ms_p50" "ms" (ms a50.Pct.value);
        metric "admit_ms_p90" "ms" (ms a90.Pct.value);
        metric "admit_rejected_frac" "ratio"
          (sum ~eps:fixed (fun e -> float_of_int e.refused)
          /. sum ~eps:fixed (fun e -> float_of_int e.decisions));
        metric "bw_rejected_pct" "%"
          (100. *. sum ~eps:fixed (fun e -> e.refused_bw)
          /. sum ~eps:fixed (fun e -> e.offered_bw));
      ]
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        let busy e = Array.fold_left ( +. ) 0. e.epoch_s in
        let extra =
          [
            metric "loop.unattributed_frac" "ratio" (Spans.unattributed t.spans ~root:w.root);
            metric "trace.overhead_frac" "ratio" ((busy t /. busy witness) -. 1.);
          ]
        in
        let have = t.layers @ extra in
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun m -> m.name = name) have with
            | Some m -> { m with value = (if Float.is_finite m.value then m.value else 0.) }
            | None -> metric name unit_ 0.)
          per_layer
  in
  let e2e = List.map (at_nominal k) e2e and layers = List.map (at_nominal k) layers in
  let finite = List.for_all (fun m -> Float.is_finite m.value) e2e in
  let checks = checks @ [ ("metrics.finite", finite) ] in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let notes =
    Printf.sprintf "%d timed episodes in %.1f s; digest of the checked episode %s"
      (List.length eps) (elapsed ()) first.digest
    :: Printf.sprintf
         "reference kernel: median %.4f ms over %d samples; times scaled by %.4f to its %.1f ms"
         (ms (Reference.nominal /. k)) samples k (ms Reference.nominal)
    :: ("episode_s of each, unscaled: "
       ^ String.concat " " (List.map (fun e -> Printf.sprintf "%.3f" e.episode_s) eps))
    :: (if trace then [] else [ Pct.describe "epoch_ms_p90" e90; Pct.describe "admit_ms_p90" a90 ])
  in
  {
    correct = failed = 0;
    attempted = max 1 (List.fold_left (fun acc e -> acc + e.decisions) 0 eps);
    failed;
    metrics = e2e @ layers;
    checks;
    notes;
    traced;
    scale = k;
  }

(* Span times at the reference speed, like every time reported. *)
let trace_table (w : workload) (t : episode) ~scale =
  let layers = Spans.layers t.spans in
  let root = List.find_opt (fun l -> l.Spans.layer = w.root) layers in
  let root_s = match root with Some r -> r.Spans.total_s | None -> 0. in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-20s %8s %12s %12s %8s\n" "span" "calls" "total_ms" "self_ms" "share";
  List.iter
    (fun (l : Spans.layer) ->
      Printf.bprintf b "%-20s %8d %12.3f %12.3f %8.4f\n" l.layer l.calls
        (ms (scale *. l.total_s))
        (ms (scale *. l.self_s))
        (if root_s > 0. then l.total_s /. root_s else 0.))
    layers;
  Buffer.contents b

let json r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct
    r.attempted r.failed;
  List.iteri
    (fun i m ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name m.value m.unit_)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print ?trace_out (w : workload) r =
  List.iter print_endline r.notes;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-40s %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  Option.iter
    (fun t ->
      print_string (trace_table w t ~scale:r.scale);
      Option.iter
        (fun path ->
          Spans.write_chrome t.spans path;
          Printf.printf "trace written to %s (%d spans)\n" path t.spans.Spans.n)
        trace_out)
    r.traced;
  List.iter (fun m -> Printf.printf "%-36s %.6g %s\n" m.name m.value m.unit_) r.metrics;
  print_endline (json r)
