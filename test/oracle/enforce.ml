module Runtime = Cm_enforce.Runtime
module Elastic = Cm_enforce.Elastic
module Maxmin = Cm_enforce.Maxmin

(* The pre-optimisation loop, kept verbatim as a baseline: lists and
   hash tables rebuilt every period, GP recomputed every period.  Only
   the effective-capacity fix is mirrored (both implementations must
   agree at headroom > 0); the per-period limiter reset is unchanged,
   which is equivalent to persistence as long as the flow set is fixed —
   the only setting the reference is used in. *)
module Reference = struct
  type state = {
    cfg : Runtime.config;
    tag : Cm_tag.Tag.t;
    enforcement : Elastic.enforcement;
    capacities : (int, float) Hashtbl.t;
    limits : (Elastic.active_pair, float) Hashtbl.t;
  }

  let create ?(config = Runtime.default_config) ~tag ~enforcement ~links () =
    let capacities = Hashtbl.create 16 in
    List.iter
      (fun (l : Maxmin.link) -> Hashtbl.replace capacities l.link_id l.capacity)
      links;
    { cfg = config; tag; enforcement; capacities; limits = Hashtbl.create 32 }

  let capacity_of t l =
    match Hashtbl.find_opt t.capacities l with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Runtime: unknown link %d" l)

  let effective_capacity_of t l = capacity_of t l *. (1. -. t.cfg.headroom)

  let step t ~flows =
    let pairs = List.map (fun (f : Runtime.flow_spec) -> f.pair) flows in
    let demands = List.map (fun (f : Runtime.flow_spec) -> f.demand) flows in
    let guarantees =
      Elastic.pair_guarantees ~demands t.tag t.enforcement ~pairs
    in
    let guarantee_of = Hashtbl.create 16 in
    List.iter (fun (p, g) -> Hashtbl.replace guarantee_of p g) guarantees;
    let limit (f : Runtime.flow_spec) =
      let g = Option.value ~default:0. (Hashtbl.find_opt guarantee_of f.pair) in
      let l = Option.value ~default:g (Hashtbl.find_opt t.limits f.pair) in
      Float.min f.demand (Float.max g l)
    in
    let loads = Hashtbl.create 16 in
    List.iter
      (fun (f : Runtime.flow_spec) ->
        let r = limit f in
        List.iter
          (fun l ->
            Hashtbl.replace loads l
              (r +. Option.value ~default:0. (Hashtbl.find_opt loads l)))
          f.path)
      flows;
    let congested (f : Runtime.flow_spec) =
      List.exists
        (fun l ->
          Option.value ~default:0. (Hashtbl.find_opt loads l)
          > effective_capacity_of t l +. 1e-9)
        f.path
    in
    let throughput (f : Runtime.flow_spec) =
      let r = limit f in
      List.fold_left
        (fun acc l ->
          let load = Option.value ~default:0. (Hashtbl.find_opt loads l) in
          let eff = effective_capacity_of t l in
          if load > eff && load > 0. then acc *. (eff /. load) else acc)
        r f.path
    in
    let result =
      List.map (fun (f : Runtime.flow_spec) -> (f.pair, throughput f)) flows
    in
    let next_limits = Hashtbl.create 16 in
    List.iter
      (fun (f : Runtime.flow_spec) ->
        let g =
          Option.value ~default:0. (Hashtbl.find_opt guarantee_of f.pair)
        in
        let r = limit f in
        let r' =
          if congested f then g +. ((r -. g) *. (1. -. t.cfg.decay))
          else r +. (t.cfg.probe_gain *. Float.max g 1.)
        in
        Hashtbl.replace next_limits f.pair (Float.min f.demand r'))
      flows;
    Hashtbl.reset t.limits;
    Hashtbl.iter (fun p r -> Hashtbl.replace t.limits p r) next_limits;
    result
end

let steady ?(config = Runtime.default_config) ~tag ~enforcement ~links flows =
  let links =
    List.map
      (fun (l : Maxmin.link) ->
        { l with capacity = l.capacity *. (1. -. config.Runtime.headroom) })
      links
  in
  let guarantees =
    Elastic.pair_guarantees
      ~demands:(List.map (fun (f : Runtime.flow_spec) -> f.demand) flows)
      tag enforcement
      ~pairs:(List.map (fun (f : Runtime.flow_spec) -> f.pair) flows)
  in
  let granted =
    Maxmin.with_guarantees ~links
      ~flows:
        (List.mapi
           (fun i ((f : Runtime.flow_spec), (_, guarantee)) ->
             {
               Maxmin.flow_id = i;
               path = f.path;
               demand = f.demand;
               guarantee;
             })
           (List.combine flows guarantees))
  in
  List.mapi (fun i (f : Runtime.flow_spec) -> (f.pair, snd granted.(i))) flows

let pair_name { Elastic.src; dst } =
  Printf.sprintf "%d.%d->%d.%d" src.comp src.vm dst.comp dst.vm

let check_rates ~what got expected =
  let fail fmt = Check.fail ~layer:"enforce" fmt in
  if List.length got <> List.length expected then
    fail "%s: %d rates, oracle has %d" what (List.length got)
      (List.length expected);
  List.iter2
    (fun (p, r) (q, o) ->
      if p <> q then
        fail "%s: pair %s where the oracle has %s" what (pair_name p)
          (pair_name q);
      if not (Check.same_bits r o) then
        fail "%s, pair %s: runtime %.17g, oracle %.17g" what (pair_name p) r o)
    got expected

let check_report ?config ~tag ~enforcement ~links ~epochs
    (report : Runtime.report) =
  if List.length epochs <> List.length report.epochs then
    Check.fail ~layer:"enforce" "%d epoch reports for %d epochs"
      (List.length report.epochs) (List.length epochs);
  let last =
    List.fold_left2
      (fun _ flows (e : Runtime.epoch_report) ->
        let expected = steady ?config ~tag ~enforcement ~links flows in
        check_rates ~what:(Printf.sprintf "epoch %d steady" e.epoch) e.steady
          expected;
        expected)
      [] epochs report.epochs
  in
  check_rates ~what:"final rates" report.rates last
