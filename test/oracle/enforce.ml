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

(* The progressive-filling loop [Maxmin.Inc] ran per sharing component
   before the event-driven rewrite, kept verbatim below
   ([filling_component]) as the specification every rate must match
   bit for bit.  The code around it rebuilds what the solver's tables
   supplied: components of the flow/link sharing graph, each solved over
   its flows in ascending flow-id order. *)

exception Infeasible

let eps = 1e-9

let filling_component ~caps (flows : Maxmin.flow array) (links : int array) =
  let nl = Array.length links in
  let nf = Array.length flows in
  let local = Hashtbl.create (2 * nl) in
  Array.iteri (fun i l -> Hashtbl.replace local l i) links;
  let remaining = Array.map caps links in
  let n_active = Array.make nl 0 in
  let base = Array.make nf 0. in
  let granted = Array.make nf 0. in
  let active = Array.make nf false in
  let paths =
    Array.map
      (fun (f : Maxmin.flow) ->
        Array.of_list (List.map (Hashtbl.find local) f.path))
      flows
  in
  (* Phase 1: guarantees, in canonical (ascending flow id) order. *)
  Array.iteri
    (fun i (f : Maxmin.flow) ->
      let g = Float.min f.guarantee f.demand in
      base.(i) <- g;
      Array.iter
        (fun l ->
          let r = remaining.(l) -. g in
          if r < -.eps then raise Infeasible;
          remaining.(l) <- Float.max 0. r)
        paths.(i))
    flows;
  (* Phase 2: progressive filling of the residual demand. *)
  let n_left = ref 0 in
  Array.iteri
    (fun i (f : Maxmin.flow) ->
      if Float.max 0. (f.demand -. base.(i)) > eps then begin
        active.(i) <- true;
        incr n_left;
        Array.iter (fun l -> n_active.(l) <- n_active.(l) + 1) paths.(i)
      end)
    flows;
  let continue_ = ref (!n_left > 0) in
  while !continue_ do
    let link_limit = ref infinity in
    for l = 0 to nl - 1 do
      if n_active.(l) > 0 then
        link_limit :=
          Float.min !link_limit (remaining.(l) /. float_of_int n_active.(l))
    done;
    let demand_limit = ref infinity in
    for i = 0 to nf - 1 do
      if active.(i) then
        let residual = Float.max 0. (flows.(i).demand -. base.(i)) in
        demand_limit := Float.min !demand_limit (residual -. granted.(i))
    done;
    let inc = Float.min !link_limit !demand_limit in
    if inc = infinity then continue_ := false
    else begin
      let inc = Float.max inc 0. in
      for i = 0 to nf - 1 do
        if active.(i) then begin
          granted.(i) <- granted.(i) +. inc;
          Array.iter (fun l -> remaining.(l) <- remaining.(l) -. inc) paths.(i)
        end
      done;
      let frozen = ref 0 in
      for i = 0 to nf - 1 do
        if active.(i) then begin
          let residual = Float.max 0. (flows.(i).demand -. base.(i)) in
          let keep =
            residual -. granted.(i) > eps
            && not (Array.exists (fun l -> remaining.(l) <= eps) paths.(i))
          in
          if not keep then begin
            active.(i) <- false;
            Array.iter (fun l -> n_active.(l) <- n_active.(l) - 1) paths.(i);
            incr frozen;
            decr n_left
          end
        end
      done;
      if !n_left = 0 || (!frozen = 0 && inc <= eps) then continue_ := false
    end
  done;
  Array.mapi (fun i _ -> base.(i) +. granted.(i)) flows

let filling ~(links : Maxmin.link list) ~(flows : Maxmin.flow list) =
  let caps = Hashtbl.create 16 in
  List.iter
    (fun (l : Maxmin.link) -> Hashtbl.replace caps l.link_id l.capacity)
    links;
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (f : Maxmin.flow) ->
      if Hashtbl.mem ids f.flow_id then
        invalid_arg (Printf.sprintf "filling: duplicate flow %d" f.flow_id);
      Hashtbl.replace ids f.flow_id ();
      List.iteri
        (fun k l ->
          if not (Hashtbl.mem caps l) then
            invalid_arg (Printf.sprintf "filling: unknown link %d" l);
          if List.mem l (List.filteri (fun j _ -> j > k) f.path) then
            invalid_arg (Printf.sprintf "filling: duplicate link %d" l))
        f.path)
    flows;
  (* Sharing components: union-find over link ids. *)
  let parent = Hashtbl.create 16 in
  let rec find l =
    match Hashtbl.find_opt parent l with
    | None -> l
    | Some p ->
        let r = find p in
        if r <> p then Hashtbl.replace parent l r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun (f : Maxmin.flow) ->
      match f.path with [] -> () | l :: rest -> List.iter (union l) rest)
    flows;
  let members = Hashtbl.create 16 in
  List.iter
    (fun (f : Maxmin.flow) ->
      match f.path with
      | [] -> ()
      | l :: _ ->
          let r = find l in
          Hashtbl.replace members r
            (f :: Option.value ~default:[] (Hashtbl.find_opt members r)))
    flows;
  let rates = Hashtbl.create 16 in
  let infeasible = ref false in
  Hashtbl.iter
    (fun _ fs ->
      let fs =
        Array.of_list
          (List.sort
             (fun (a : Maxmin.flow) b -> compare a.flow_id b.flow_id)
             fs)
      in
      let links =
        Array.of_list
          (List.sort_uniq compare
             (List.concat_map (fun (f : Maxmin.flow) -> f.path)
                (Array.to_list fs)))
      in
      match filling_component ~caps:(Hashtbl.find caps) fs links with
      | r -> Array.iteri (fun i (f : Maxmin.flow) -> Hashtbl.replace rates f.flow_id r.(i)) fs
      | exception Infeasible -> infeasible := true)
    members;
  if !infeasible then invalid_arg "filling: infeasible guarantees";
  Array.of_list
    (List.map
       (fun (f : Maxmin.flow) ->
         ( f.flow_id,
           match f.path with
           | [] ->
               if f.demand = infinity then Float.min f.guarantee f.demand
               else f.demand
           | _ -> Hashtbl.find rates f.flow_id ))
       flows)
