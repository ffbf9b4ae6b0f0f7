(* The closed loop: admit -> place -> enforce -> infer -> renegotiate.

   One epoch, after its inputs were generated outside the timed span:

   1. departing tenants release their placement and their flows;
   2. the epoch's arrivals are placed together ([Shard.place_batch]);
   3. every admitted tenant's sampled VM pairs are routed, given GP
      guarantees ([Elastic.pair_guarantees ~Tag_gp]) and added to one
      [Maxmin.Inc] over the tree's links;
   4. demand changes on live flows are applied;
   5. each observed tenant's traffic epoch is pushed into its own
      [Stream]; a drift event renegotiates the tenant: the inferred TAG
      is placed in place of the sold one (release, then place; the old
      TAG goes back if the new one is refused) and its flows are
      re-materialised;
   6. [Maxmin.Inc.solve] re-converges the rates once.

   Observed tenants never depart, so the inference load is the same in
   every epoch. *)

open Common
module Tree = Cm_topology.Tree
module Types = Cm_placement.Types
module Maxmin = Cm_enforce.Maxmin
module Inc = Maxmin.Inc
module Stream = Cm_inference.Stream
module Tm = Cm_inference.Traffic_matrix
module Similarity = Cm_inference.Similarity
module Csr = Cm_util.Csr

(* Held fixed at every size (README.md, "Sizing, and why"): the warm
   fill's target slot occupancy, sampled VM pairs per TAG edge, per
   observed tenant and epoch the rate re-rolls and the chance of one
   role migration, and the domain count. *)
let load = 2.0
let pairs_per_edge = 1
let rate_drifters = 1
let role_drift = 0.1
let domains = 1

type cfg = {
  spec : Tree.spec;
  dwell : float;  (** Mean tenant lifetime, in epochs. *)
  epochs : int;  (** Timed epochs per episode. *)
  observed : int;  (** Tenants whose traffic is streamed to inference. *)
  observed_vms : int * int;  (** Size range they are drawn from. *)
  churn : int;  (** Flow demand changes per epoch. *)
}

let default =
  {
    spec = Tree.default_spec;
    dwell = 12.;
    epochs = 20;
    observed = 6;
    observed_vms = (100, 300);
    churn = 64;
  }

let tiny =
  {
    spec = { Tree.default_spec with degrees = [ 2; 4; 8 ] };
    dwell = 10.;
    epochs = 12;
    observed = 2;
    observed_vms = (10, 60);
    churn = 4;
  }

type obs = { drift : Tm.Drift.d; stream : Stream.t }

type tenant = {
  id : int;
  mutable tag : Tag.t;  (** The TAG the tenant was sold. *)
  mutable handle : int;
  mutable flow_ids : int array;
  obs : obs option;
}

type state = {
  cfg : cfg;
  mutable sp : Spans.t;
  placer : Placer.t;
  inc : Inc.t;
  flows : (int, Maxmin.flow) Hashtbl.t;
  tenants : (int, tenant) Hashtbl.t;
  leaving : (int, int list) Hashtbl.t;  (** Epoch -> tenant ids. *)
  mutable mrng : Rng.t;  (** Pair sampling. *)
  mutable next_flow : int;
  mutable next_tenant : int;
  (* Ledger. *)
  mutable set_ops : int;
  mutable materialized : int;
  mutable gp_calls : int;
  mutable gp_pairs : int;
  mutable resolved : int;
  mutable total : int;
  mutable components : int;
  mutable pushes : int;
  mutable dirty_frac : float;
  mutable full : int;
  mutable fallback : int;
  mutable events : int;
  mutable renegs : int;
  mutable reneg_ok : int;
}

let span st name f = Spans.span st.sp name f

let remove_flows st t =
  span st "inc.set_remove" (fun () ->
      Array.iter
        (fun id ->
          Inc.remove st.inc id;
          Hashtbl.remove st.flows id)
        t.flow_ids);
  st.set_ops <- st.set_ops + Array.length t.flow_ids;
  t.flow_ids <- [||]

(* Materialise, partition and enforce a tenant's current placement. *)
let install st t =
  let p = Placer.placement st.placer t.handle in
  let pairs, paths =
    span st "materialize" (fun () ->
        Flows.materialize st.mrng (Placer.tree st.placer) t.tag p.Types.locations ~pairs_per_edge)
  in
  let g = span st "gp" (fun () -> Flows.guarantees t.tag pairs) in
  let ids = Array.init (Array.length paths) (fun k -> st.next_flow + k) in
  st.next_flow <- st.next_flow + Array.length ids;
  span st "inc.set_remove" (fun () ->
      Array.iteri
        (fun k id ->
          let f =
            { Maxmin.flow_id = id; path = paths.(k); demand = infinity; guarantee = g.(k) }
          in
          Inc.set st.inc f;
          Hashtbl.replace st.flows id f)
        ids);
  t.flow_ids <- ids;
  st.set_ops <- st.set_ops + Array.length ids;
  st.materialized <- st.materialized + Array.length ids;
  st.gp_calls <- st.gp_calls + 1;
  st.gp_pairs <- st.gp_pairs + Array.length ids

let admit st tag handle obs ~leaves =
  let t = { id = st.next_tenant; tag; handle; flow_ids = [||]; obs } in
  st.next_tenant <- st.next_tenant + 1;
  Hashtbl.replace st.tenants t.id t;
  if leaves < max_int then
    Hashtbl.replace st.leaving leaves
      (t.id :: Option.value ~default:[] (Hashtbl.find_opt st.leaving leaves));
  t

let solve st =
  span st "inc.solve" (fun () -> Inc.solve ~domains st.inc);
  let s = Inc.last_stats st.inc in
  st.resolved <- st.resolved + s.Inc.flows_resolved;
  st.total <- st.total + s.Inc.flows_total;
  st.components <- st.components + s.Inc.components

let push st (o : obs) m =
  let s = span st "stream.push" (fun () -> Stream.push ~domains o.stream m) in
  st.pushes <- st.pushes + 1;
  st.dirty_frac <-
    st.dirty_frac +. (float_of_int s.Stream.dirty_vertices /. float_of_int (Stream.n_vms o.stream));
  if s.Stream.full then st.full <- st.full + 1;
  if s.Stream.fallback then st.fallback <- st.fallback + 1;
  s.Stream.drift

(* Renegotiate an observed tenant onto its inferred TAG. *)
let renegotiate st t (o : obs) =
  st.renegs <- st.renegs + 1;
  span st "reneg" (fun () ->
      let inferred = span st "stream.tag" (fun () -> Stream.tag o.stream) in
      span st "shard.release" (fun () -> Placer.release st.placer t.handle);
      remove_flows st t;
      let place tag = span st "shard.place" (fun () -> Placer.place st.placer tag) in
      match place inferred with
      | Placer.Granted h ->
          st.reneg_ok <- st.reneg_ok + 1;
          t.tag <- inferred;
          t.handle <- h;
          install st t
      | Placer.Refused _ -> (
          match place t.tag with
          | Placer.Granted h ->
              t.handle <- h;
              install st t
          | Placer.Refused _ ->
              (* Not even the old TAG fits any more: the tenant leaves. *)
              Hashtbl.remove st.tenants t.id))

type inputs = {
  arrivals : Tag.t array;
  lifetimes : int array;
  traffic : (tenant * obs * Csr.t) list;
  demand : (int * float) list;  (** Flow id -> new demand. *)
}

let drift_step rng (o : obs) =
  let role_drifters = if Rng.uniform rng < role_drift then 1 else 0 in
  Tm.Drift.step ~rate_drifters ~role_drifters o.drift

let observed_tenants st =
  Hashtbl.fold (fun _ t acc -> match t.obs with Some o -> (t, o) :: acc | None -> acc) st.tenants []
  |> List.sort (fun (a, _) (b, _) -> compare a.id b.id)

(* Everything random about epoch [e], drawn before it is timed. *)
let generate st rng deck ~lambda e =
  let cfg = st.cfg in
  let k = poisson rng ~mean:lambda in
  let arrivals = Array.init k (fun _ -> draw deck) in
  let lifetimes = Array.init k (fun _ -> lifetime rng ~mean:cfg.dwell) in
  let traffic = List.map (fun (t, o) -> (t, o, drift_step rng o)) (observed_tenants st) in
  let leaving = Option.value ~default:[] (Hashtbl.find_opt st.leaving e) in
  let candidates =
    Hashtbl.fold
      (fun id t acc ->
        if t.obs = None && Array.length t.flow_ids > 0 && not (List.mem id leaving) then t :: acc
        else acc)
      st.tenants []
    |> List.sort (fun a b -> compare a.id b.id)
    |> Array.of_list
  in
  let demand =
    if Array.length candidates = 0 then []
    else
      List.init cfg.churn (fun _ ->
          let t = Rng.pick rng candidates in
          let id = Rng.pick rng t.flow_ids in
          let g = (Hashtbl.find st.flows id).Maxmin.guarantee in
          let demand =
            if Rng.bool rng then infinity else Rng.range_float rng ~lo:0.5 ~hi:2. *. Float.max g 1.
          in
          (id, demand))
  in
  { arrivals; lifetimes; traffic; demand }

let release_tenant st t =
  span st "shard.release" (fun () -> Placer.release st.placer t.handle);
  remove_flows st t;
  Hashtbl.remove st.tenants t.id

type ledger = {
  mutable latencies : float list;  (** Admission, per decision. *)
  mutable reneg_s : float list;
  mutable decisions : int;
  mutable refused : int;
  mutable offered_bw : float;
  mutable refused_bw : float;
}

let epoch st (l : ledger) inp e ~t0 =
  span st "loop.epoch" (fun () ->
      List.iter
        (fun id -> Option.iter (release_tenant st) (Hashtbl.find_opt st.tenants id))
        (Option.value ~default:[] (Hashtbl.find_opt st.leaving e));
      Hashtbl.remove st.leaving e;
      if Array.length inp.arrivals > 0 then begin
        let outs =
          span st "shard.place_batch" (fun () -> Placer.place_batch st.placer inp.arrivals)
        in
        let decided = now () -. t0 in
        Array.iteri
          (fun i o ->
            let tag = inp.arrivals.(i) in
            l.latencies <- decided :: l.latencies;
            l.decisions <- l.decisions + 1;
            l.offered_bw <- l.offered_bw +. Tag.aggregate_bandwidth tag;
            match o with
            | Placer.Granted h -> install st (admit st tag h None ~leaves:(e + inp.lifetimes.(i)))
            | Placer.Refused _ ->
                l.refused <- l.refused + 1;
                l.refused_bw <- l.refused_bw +. Tag.aggregate_bandwidth tag)
          outs
      end;
      span st "inc.set_remove" (fun () ->
          List.iter
            (fun (id, demand) ->
              let f = { (Hashtbl.find st.flows id) with Maxmin.demand } in
              Inc.set st.inc f;
              Hashtbl.replace st.flows id f)
            inp.demand);
      st.set_ops <- st.set_ops + List.length inp.demand;
      List.iter
        (fun (t, o, m) ->
          if push st o m <> None then begin
            st.events <- st.events + 1;
            let fired = now () in
            renegotiate st t o;
            l.reneg_s <- (now () -. fired) :: l.reneg_s
          end)
        inp.traffic;
      solve st)

let window = Stream.default_config.Stream.window

(* Tree, pool and shard, then the warm fill: observed tenants first, then
   arrivals in batches until the live population reaches its steady
   size ([load] of the slots at the pool's mean tenant size), enforced
   once and with every inference window full. *)
let setup cfg ~seed =
  let pool = pool () in
  let placer = Placer.create ~domains cfg.spec in
  let tree = Placer.tree placer in
  let fixture = Rng.create fixture_seed and rng = Rng.create seed in
  let st =
    {
      cfg;
      sp = Spans.off;
      placer;
      inc = Inc.create ~links:(Flows.links tree);
      flows = Hashtbl.create 65536;
      tenants = Hashtbl.create 1024;
      leaving = Hashtbl.create 1024;
      mrng = Rng.split fixture;
      next_flow = 0;
      next_tenant = 0;
      set_ops = 0;
      materialized = 0;
      gp_calls = 0;
      gp_pairs = 0;
      resolved = 0;
      total = 0;
      components = 0;
      pushes = 0;
      dirty_frac = 0.;
      full = 0;
      fallback = 0;
      events = 0;
      renegs = 0;
      reneg_ok = 0;
    }
  in
  let lo, hi = cfg.observed_vms in
  let eligible =
    List.filter
      (fun tag ->
        let n = Tag.total_vms tag in
        Tag.n_externals tag = 0 && lo <= n && n <= hi)
      (Array.to_list pool.Pool.tags)
    |> Array.of_list
  in
  let watched = Array.init cfg.observed (fun i -> eligible.(i mod Array.length eligible)) in
  Array.iteri
    (fun i o ->
      match o with
      | Placer.Granted h ->
          let tag = watched.(i) in
          let drift = Tm.Drift.create ~rng:(Rng.split rng) tag in
          let stream = Stream.create ~n:(Tag.total_vms tag) () in
          ignore (admit st tag h (Some { drift; stream }) ~leaves:max_int)
      | Placer.Refused _ -> ())
    (Placer.place_batch placer watched);
  let target =
    int_of_float (load *. float_of_int (Tree.total_slots tree) /. Pool.mean_size pool)
  in
  let fill_deck = deck fixture pool in
  let rec fill () =
    if Hashtbl.length st.tenants < target then begin
      let tags = Array.init 64 (fun _ -> draw fill_deck) in
      let outs = Placer.place_batch placer tags in
      let granted = ref 0 in
      Array.iteri
        (fun i o ->
          match o with
          | Placer.Granted h ->
              incr granted;
              ignore (admit st tags.(i) h None ~leaves:(lifetime fixture ~mean:cfg.dwell))
          | Placer.Refused _ -> ())
        outs;
      if 2 * !granted >= Array.length tags then fill ()
    end
  in
  fill ();
  Hashtbl.fold (fun _ t acc -> t :: acc) st.tenants []
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.iter (install st);
  solve st;
  for _ = 1 to window do
    List.iter
      (fun (_, o) -> ignore (push st o (Tm.Drift.step ~rate_drifters o.drift)))
      (observed_tenants st)
  done;
  st.mrng <- Rng.split rng;
  let lambda = float_of_int target /. cfg.dwell in
  (st, rng, deck (Rng.split rng) pool, lambda)

let reset_ledger st =
  st.set_ops <- 0;
  st.materialized <- 0;
  st.gp_calls <- 0;
  st.gp_pairs <- 0;
  st.resolved <- 0;
  st.total <- 0;
  st.components <- 0;
  st.pushes <- 0;
  st.dirty_frac <- 0.;
  st.full <- 0;
  st.fallback <- 0;
  st.events <- 0

let bits x = Int64.bits_of_float x

let digest st =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Placer.transcript st.placer);
  Hashtbl.fold (fun id _ acc -> id :: acc) st.flows []
  |> List.sort compare
  |> List.iter (fun id -> Printf.bprintf b "%d=%Lx;" id (bits (Inc.rate st.inc id)));
  List.iter
    (fun (t, o) ->
      Printf.bprintf b "T%d:" t.id;
      Array.iter (Printf.bprintf b "%d,") (Stream.labels o.stream))
    (observed_tenants st);
  Digest.to_hex (Digest.string (Buffer.contents b))

let checks st =
  let flows = Hashtbl.fold (fun _ f acc -> f :: acc) st.flows [] in
  let guaranteed =
    List.for_all
      (fun (f : Maxmin.flow) ->
        Inc.rate st.inc f.flow_id >= Float.min f.demand f.guarantee -. 1e-6)
      flows
  in
  let oracle =
    Maxmin.with_guarantees ~links:(Flows.links (Placer.tree st.placer)) ~flows
    |> Array.for_all (fun (id, r) -> bits r = bits (Inc.rate st.inc id))
  in
  let streams =
    List.for_all
      (fun (_, o) ->
        let mean = Tm.mean_csr (Tm.of_epochs (Stream.window_epochs o.stream)) in
        Csr.equal mean (Stream.mean o.stream)
        && Csr.equal (Similarity.projection_csr mean) (Stream.projection o.stream))
      (observed_tenants st)
  in
  [
    ("loop.rates_meet_guarantees", guaranteed);
    ("loop.rates_match_oracle", oracle);
    ("loop.stream_matches_batch", streams);
  ]

let layers st sp (l : ledger) ~epochs ~gen_s replay =
  let d name = Spans.durations sp name in
  let tot name = Spans.total sp name in
  let cnt name = Spans.count sp name in
  Placer.layers st.placer sp replay ~batched:l.decisions
  @ [
    metric "gp.us_per_tenant" "us" (us (per st.gp_calls (tot "gp")));
    metric "gp.pairs_per_tenant" "count" (per st.gp_calls (float_of_int st.gp_pairs));
    metric "inc.solve_ms_p50" "ms" (ms (Pct.median (d "inc.solve")).Pct.value);
    metric "inc.solve_ms_p90" "ms" (ms (Pct.tail ~target:90 (d "inc.solve")).Pct.value);
    metric "inc.set_remove_us_per_op" "us" (us (per st.set_ops (tot "inc.set_remove")));
    metric "inc.resolved_frac" "ratio" (per st.total (float_of_int st.resolved));
    metric "inc.resolved_per_changed" "ratio" (per st.set_ops (float_of_int st.resolved));
    metric "inc.components_per_solve" "count" (per (cnt "inc.solve") (float_of_int st.components));
    metric "inc.minor_words_per_resolved_flow" "words"
      (per st.resolved (Spans.words sp "inc.solve"));
    metric "stream.push_ms_p50" "ms" (ms (Pct.median (d "stream.push")).Pct.value);
    metric "stream.push_ms_p90" "ms" (ms (Pct.tail ~target:90 (d "stream.push")).Pct.value);
    metric "stream.dirty_frac" "ratio" (per st.pushes st.dirty_frac);
    metric "stream.full_frac" "ratio" (per st.pushes (float_of_int st.full));
    metric "stream.fallback_frac" "ratio" (per st.pushes (float_of_int st.fallback));
    metric "stream.drift_events" "count" (float_of_int st.events);
    metric "stream.tag_ms" "ms" (ms (per (cnt "stream.tag") (tot "stream.tag")));
    metric "stream.minor_words_per_push" "words" (per st.pushes (Spans.words sp "stream.push"));
    metric "reneg.count" "count" (float_of_int st.renegs);
    metric "reneg.accepted_frac" "ratio" (per st.renegs (float_of_int st.reneg_ok));
    metric "reneg.ms_p50" "ms" (ms (Pct.median (Array.of_list l.reneg_s)).Pct.value);
    metric "materialize.us_per_flow" "us" (us (per st.materialized (tot "materialize")));
    metric "gen.ms_per_epoch" "ms" (ms (per epochs gen_s));
  ]

let episode cfg ~seed ~traced ~check =
  let setup_s, (st, rng, arrivals, lambda) = timed (fun () -> setup cfg ~seed) in
  reset_ledger st;
  Placer.mark st.placer;
  let sp = Spans.create ~enabled:traced in
  st.sp <- sp;
  let l =
    { latencies = []; reneg_s = []; decisions = 0; refused = 0; offered_bw = 0.; refused_bw = 0. }
  in
  let gen_s = ref 0. in
  let epoch_s =
    Array.init cfg.epochs (fun i ->
        let e = i + 1 in
        let g, inp = timed (fun () -> generate st rng arrivals ~lambda e) in
        gen_s := !gen_s +. g;
        let t0 = now () in
        epoch st l inp e ~t0;
        let d = now () -. t0 in
        Reference.tick ();
        d)
  in
  st.sp <- Spans.off;
  let digest = digest st in
  let replay = if traced then Some (Placer.replay ~domains:1 st.placer) else None in
  let layers =
    match replay with Some r -> layers st sp l ~epochs:cfg.epochs ~gen_s:!gen_s r | None -> []
  in
  let checks =
    Placer.replay_checks replay
    @
    if not check then []
    else
      let c = checks st in
      let live = Hashtbl.fold (fun _ t acc -> t.handle :: acc) st.tenants [] in
      c @ [ ("placement.release_all_pristine", Placer.pristine st.placer ~live) ]
  in
  {
    setup_s;
    epoch_s;
    admit_s = Array.of_list l.latencies;
    episode_s = Array.fold_left ( +. ) 0. epoch_s;
    decisions = l.decisions;
    refused = l.refused;
    offered_bw = l.offered_bw;
    refused_bw = l.refused_bw;
    digest;
    checks;
    layers;
    spans = sp;
  }
