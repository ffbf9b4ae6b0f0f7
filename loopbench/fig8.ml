(* Regenerating the paper's Fig. 8: [Experiments.fig8] over its ten
   loads, CloudMirror against the OVOC baseline, one domain.

   The figure is a fixed artefact of the repository (the paper's
   default seed), so [--seed] does not change it.  Each episode times
   one [Experiments.fig8] call, then replays its twenty
   (load, scheduler) points through [Runner.run] with the schedulers'
   [place]/[release] closures wrapped, which is where per-decision
   latency and the per-load ("epoch") times come from.  The replay must
   reproduce the figure's table. *)

open Common
module E = Cm_experiments.Experiments
module Runner = Cm_sim.Runner
module Driver = Cm_sim.Driver
module Tree = Cm_topology.Tree
module Table = Cm_util.Table
module Par = Cm_util.Par

type cfg = { arrivals : int; loads : float list }

let default = { arrivals = 200; loads = List.init 10 (fun i -> float_of_int (i + 1) /. 10.) }
let tiny = { arrivals = 30; loads = [ 0.5; 1.0 ] }
let params cfg = { E.default_params with arrivals = cfg.arrivals }

(* The table's rows as [load; BW CM; BW OVOC; VM CM; VM OVOC] cells. *)
let rows table =
  let lines = String.split_on_char '\n' (Table.render table) in
  let rec after_rule = function
    | l :: rest when String.length l > 0 && String.for_all (( = ) '-') l -> rest
    | _ :: rest -> after_rule rest
    | [] -> []
  in
  after_rule lines
  |> List.filter (( <> ) "")
  |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))

let pool_of (p : E.sim_params) =
  Cm_workload.Pool.scale_to_bmax (Cm_workload.Pool.bing_like ~seed:p.E.seed ()) ~bmax:p.E.bmax

(* One (load, scheduler) point with instrumented closures; returns the
   point's time, its construction time and its result. *)
let replay_point cfg sp ~make ~load ~latencies =
  let p = params cfg in
  let build, (pool, tree, (s : Driver.scheduler)) =
    timed (fun () ->
        let tree = Tree.create Tree.default_spec in
        (pool_of p, tree, make tree))
  in
  let name = if s.Driver.sched_name = "CM" then "cm" else "ovoc" in
  let place_span = name ^ ".place" and release_span = name ^ ".release" in
  let wrapped =
    {
      s with
      Driver.place =
        (fun req ->
          let t0 = now () in
          let r = Spans.span sp place_span (fun () -> s.Driver.place req) in
          latencies := (now () -. t0) :: !latencies;
          r);
      release = (fun pl -> Spans.span sp release_span (fun () -> s.Driver.release pl));
    }
  in
  let rc =
    { Runner.default_config with seed = p.E.seed; n_arrivals = p.E.arrivals; load; wcs_level = 0 }
  in
  let took, result =
    timed (fun () -> Spans.span sp "fig8.point" (fun () -> Runner.run wrapped tree pool rc))
  in
  Reference.tick ();
  (took, build, result)

let episode cfg ~seed:_ ~traced ~check =
  Par.set_default_domains 1;
  let fig8_s, table = timed (fun () -> E.fig8 (params cfg) ~loads:cfg.loads) in
  let sp = Spans.create ~enabled:traced in
  let latencies = ref [] in
  let point ~make load = replay_point cfg sp ~make ~load ~latencies in
  let points =
    List.map
      (fun load ->
        ( load,
          point ~make:(fun t -> Driver.cm t) load,
          point ~make:(fun t -> Driver.oktopus t) load ))
      cfg.loads
  in
  let pct = Printf.sprintf "%.1f" in
  let replayed =
    List.map
      (fun (load, (_, _, cm), (_, _, ovoc)) ->
        [
          Printf.sprintf "%.0f%%" (100. *. load);
          pct (Runner.bw_rejection_rate cm);
          pct (Runner.bw_rejection_rate ovoc);
          pct (Runner.vm_rejection_rate cm);
          pct (Runner.vm_rejection_rate ovoc);
        ])
      points
  in
  let results = List.concat_map (fun (_, cm, ovoc) -> [ cm; ovoc ]) points in
  let sum f = List.fold_left (fun acc (_, _, r) -> acc +. f r) 0. results in
  let isum f = List.fold_left (fun acc (_, _, r) -> acc + f r) 0 results in
  let layers =
    if not traced then []
    else
      let tot = Spans.total sp and cnt = Spans.count sp in
      let per_call name = per (cnt name) (tot name) in
      [
        metric "cm.us_per_decision" "us" (us (per_call "cm.place"));
        metric "ovoc.us_per_decision" "us" (us (per_call "ovoc.place"));
        metric "ovoc.share_of_wall" "ratio"
          ((tot "ovoc.place" +. tot "ovoc.release") /. tot "fig8.point");
        metric "cm.minor_words_per_decision" "words"
          (per (cnt "cm.place") (Spans.words sp "cm.place"));
        metric "ovoc.minor_words_per_decision" "words"
          (per (cnt "ovoc.place") (Spans.words sp "ovoc.place"));
      ]
  in
  let rendered = Table.render table in
  {
    setup_s = List.fold_left (fun acc (_, b, _) -> acc +. b) 0. results;
    (* An epoch is one replay of the whole figure, both schedulers at
       every load: the times of single points form one cluster per load
       and scheduler, and a percentile of them pooled sits on a cluster's
       edge, where it jumps from run to run. *)
    epoch_s = [| List.fold_left (fun acc (_, (w1, _, _), (w2, _, _)) -> acc +. w1 +. w2) 0. points |];
    admit_s = Array.of_list !latencies;
    episode_s = fig8_s;
    decisions = isum (fun r -> r.Runner.arrivals);
    refused = isum (fun r -> r.Runner.rejected);
    offered_bw = sum (fun r -> r.Runner.offered_bw);
    refused_bw = sum (fun r -> r.Runner.rejected_bw);
    digest =
      Digest.to_hex
        (Digest.string (rendered ^ String.concat "\n" (List.map (String.concat " ") replayed)));
    checks = (if check then [ ("fig8.replay_matches_table", rows table = replayed) ] else []);
    layers;
    spans = sp;
  }
