(* Tests for Cm_sim: the arrival/departure runner, rejection accounting,
   tree restoration, the Table 1 experiment, and the CM-vs-OVOC ordering
   the paper's evaluation rests on. *)

module Tree = Cm_topology.Tree
module Pool = Cm_workload.Pool
module Driver = Cm_sim.Driver
module Runner = Cm_sim.Runner
module Reserved_bw = Cm_sim.Reserved_bw

(* A small datacenter so tests are fast: 64 servers, 8 slots each. *)
let small_spec =
  {
    Tree.degrees = [ 4; 4; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4.; 8. ];
  }

let small_pool = Pool.hpcloud_like ~n:20 ~seed:3 ()
let scaled = Pool.scale_to_bmax small_pool ~bmax:300.

let test_runner_counts_consistent () =
  let tree = Tree.create small_spec in
  let cfg = { Runner.default_config with n_arrivals = 300; load = 0.7 } in
  let r = Runner.run (Driver.cm tree) tree scaled cfg in
  Alcotest.(check int) "arrivals" 300 r.arrivals;
  Alcotest.(check int) "accepted + rejected" 300 (r.accepted + r.rejected);
  Alcotest.(check int) "reject reasons sum" r.rejected
    (r.rejected_no_slots + r.rejected_no_bw);
  Alcotest.(check bool) "rejected vms <= offered" true
    (r.rejected_vms <= r.offered_vms);
  Alcotest.(check bool) "rejected bw <= offered" true
    (r.rejected_bw <= r.offered_bw +. 1e-6)

let test_runner_restores_tree () =
  let tree = Tree.create small_spec in
  let cfg = { Runner.default_config with n_arrivals = 200; load = 0.8 } in
  ignore (Runner.run (Driver.cm tree) tree scaled cfg : Runner.result);
  Alcotest.(check int) "slots restored" (Tree.total_slots tree)
    (Tree.free_slots_subtree tree (Tree.root tree));
  for node = 0 to Tree.n_nodes tree - 1 do
    Alcotest.(check bool) "bw restored" true
      (Float.abs (Tree.reserved_up tree node) < 1e-3
      && Float.abs (Tree.reserved_down tree node) < 1e-3)
  done

let test_runner_deterministic () =
  let run () =
    let tree = Tree.create small_spec in
    let cfg = { Runner.default_config with n_arrivals = 200; load = 0.6 } in
    Runner.run (Driver.cm tree) tree scaled cfg
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same accepted" a.accepted b.accepted;
  Alcotest.(check (float 1e-9)) "same rejected bw" a.rejected_bw b.rejected_bw

let test_run_replications_matches_sequential () =
  let cfg = { Runner.default_config with n_arrivals = 150; load = 0.8 } in
  let seeds = [ 5; 6; 7; 8 ] in
  let sequential =
    List.map
      (fun seed ->
        let tree = Tree.create small_spec in
        Runner.run (Driver.cm tree) tree scaled { cfg with seed })
      seeds
  in
  List.iter
    (fun domains ->
      let sharded =
        Runner.run_replications ~domains Driver.cm small_spec scaled cfg ~seeds
      in
      List.iter2
        (fun (a : Runner.result) (b : Runner.result) ->
          Alcotest.(check int)
            (Printf.sprintf "accepted, %d domains" domains)
            a.accepted b.accepted;
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "rejected bw, %d domains" domains)
            a.rejected_bw b.rejected_bw)
        sequential sharded)
    [ 1; 4 ]

let test_low_load_accepts_everything () =
  let tree = Tree.create small_spec in
  let pool = Pool.scale_to_bmax small_pool ~bmax:50. in
  let cfg = { Runner.default_config with n_arrivals = 100; load = 0.05 } in
  let r = Runner.run (Driver.cm tree) tree pool cfg in
  Alcotest.(check int) "no rejection at trivial load" 0 r.rejected

let test_rejection_grows_with_load () =
  let at load =
    let tree = Tree.create small_spec in
    let cfg = { Runner.default_config with n_arrivals = 500; load } in
    Runner.bw_rejection_rate (Runner.run (Driver.cm tree) tree scaled cfg)
  in
  let lo = at 0.3 and hi = at 1.2 in
  Alcotest.(check bool)
    (Printf.sprintf "rejection %.1f%% at 0.3 <= %.1f%% at 1.2" lo hi)
    true (lo <= hi);
  Alcotest.(check bool) "overload rejects something" true (hi > 0.)

let test_cm_beats_ovoc () =
  (* The paper's core result, on a small instance: CM rejects less
     bandwidth than OVOC under the same workload. *)
  let rejection make =
    let tree = Tree.create small_spec in
    let cfg = { Runner.default_config with n_arrivals = 600; load = 0.8 } in
    Runner.bw_rejection_rate (Runner.run (make tree) tree scaled cfg)
  in
  let cm = rejection Driver.cm in
  let ovoc = rejection Driver.oktopus in
  Alcotest.(check bool)
    (Printf.sprintf "CM %.1f%% <= OVOC %.1f%%" cm ovoc)
    true (cm <= ovoc)

let test_wcs_reported_for_accepted () =
  let tree = Tree.create small_spec in
  let cfg = { Runner.default_config with n_arrivals = 100; load = 0.3 } in
  let r = Runner.run (Driver.cm tree) tree scaled cfg in
  Alcotest.(check bool) "some wcs samples" true
    (Array.length r.wcs_per_component > 0);
  Array.iter
    (fun w ->
      Alcotest.(check bool) "wcs in [0,1]" true (w >= 0. && w <= 1.))
    r.wcs_per_component

let test_ha_config_improves_wcs () =
  let run ha =
    let tree = Tree.create small_spec in
    let cfg =
      { Runner.default_config with n_arrivals = 300; load = 0.5; ha }
    in
    Runner.mean_wcs (Runner.run (Driver.cm tree) tree scaled cfg)
  in
  let base = run None in
  let guarded = run (Some { Cm_placement.Types.rwcs = 0.5; laa_level = 0 }) in
  Alcotest.(check bool)
    (Printf.sprintf "HA wcs %.0f%% >= base %.0f%%" guarded base)
    true (guarded >= base)

let test_opp_ha_improves_wcs_cheaply () =
  let run make =
    let tree = Tree.create small_spec in
    let cfg = { Runner.default_config with n_arrivals = 300; load = 0.5 } in
    let r = Runner.run (make tree) tree scaled cfg in
    (Runner.mean_wcs r, Runner.bw_rejection_rate r)
  in
  let base_wcs, _ = run Driver.cm in
  let opp_wcs, _ =
    run (fun tree ->
        Driver.cm
          ~policy:{ Cm_placement.Cm.default_policy with opportunistic_ha = true }
          tree)
  in
  Alcotest.(check bool)
    (Printf.sprintf "oppHA wcs %.0f%% >= default %.0f%%" opp_wcs base_wcs)
    true (opp_wcs >= base_wcs)

(* {1 Table 1 machinery} *)

let test_reserved_bw_orderings () =
  let r = Reserved_bw.run small_spec scaled ~seed:5 in
  Alcotest.(check int) "three rows" 3 (List.length r.rows);
  Alcotest.(check bool) "deployed something" true (r.tenants_deployed > 0);
  let find name =
    (List.find (fun (row : Reserved_bw.row) -> row.combo = name) r.rows)
      .per_level
  in
  let tag = find "CM+TAG" and voc = find "CM+VOC" in
  (* Same placement, re-priced: VOC >= TAG at every level (footnote 7). *)
  Array.iteri
    (fun l v ->
      Alcotest.(check bool)
        (Printf.sprintf "voc >= tag at level %d" l)
        true (v +. 1e-9 >= tag.(l)))
    voc

let test_account_zero_for_no_placements () =
  let tree = Tree.create small_spec in
  let levels =
    Reserved_bw.account tree [] ~model:Cm_tag.Bandwidth.Tag_model
  in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "zero" 0. v) levels

let test_account_matches_tree_reservations () =
  (* CM's live reservations must equal the offline re-pricing under the
     same (TAG) model. *)
  let tree = Tree.create small_spec in
  let sched = Driver.cm tree in
  let placements =
    List.filter_map
      (fun tag ->
        match sched.Driver.place (Cm_placement.Types.request tag) with
        | Ok p -> Some p
        | Error _ -> None)
      (Array.to_list (Array.sub scaled.Pool.tags 0 10))
  in
  let accounted =
    Reserved_bw.account tree placements ~model:Cm_tag.Bandwidth.Tag_model
  in
  for l = 0 to Tree.n_levels tree - 2 do
    let live_up, _ = Tree.reserved_at_level tree ~level:l in
    Alcotest.(check (float 0.5))
      (Printf.sprintf "level %d" l)
      (live_up /. 1000.) accounted.(l)
  done

let test_runner_invalid_load () =
  (* A NaN load used to slip past [load <= 0.] and run on a NaN clock,
     where no tenant ever departs; every entry point rejects it, and the
     other configs the arrival process cannot run, before any draw. *)
  let tree = Tree.create small_spec in
  let bad name cfg =
    Alcotest.check_raises name (Invalid_argument "")
      (fun () ->
        try ignore (Runner.run (Driver.cm tree) tree scaled cfg)
        with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  let d = Runner.default_config in
  bad "load 0" { d with load = 0. };
  bad "load nan" { d with load = nan };
  bad "load infinity" { d with load = infinity };
  bad "dwell_time 0" { d with dwell_time = 0. };
  bad "n_arrivals -1" { d with n_arrivals = -1 };
  let message entry =
    Invalid_argument
      (entry
     ^ ": load and dwell_time must be finite and positive, n_arrivals \
        non-negative")
  in
  let nan_cfg = { d with load = nan } in
  Alcotest.check_raises "run_batched" (message "Runner.run_batched") (fun () ->
      ignore
        (Runner.run_batched (Cm_placement.Shard.create tree) scaled nan_cfg));
  Alcotest.check_raises "run_with_failures"
    (message "Runner.run_with_failures") (fun () ->
      ignore
        (Runner.run_with_failures (Driver.cm tree) tree scaled nan_cfg
           ~failures:{ Cm_sim.Failure.level = 1; events = [] }));
  Alcotest.check_raises "horizon" (message "Runner.horizon") (fun () ->
      ignore (Runner.horizon tree scaled { d with dwell_time = nan }));
  Alcotest.(check int) "tree untouched" (Tree.total_slots tree)
    (Tree.free_slots_subtree tree (Tree.root tree))

let test_runner_wcs_level_rack () =
  (* Measuring WCS at rack level yields lower survivability than at
     server level for the same run. *)
  let at level =
    let tree = Tree.create small_spec in
    let cfg =
      {
        Runner.default_config with
        n_arrivals = 200;
        load = 0.5;
        wcs_level = level;
      }
    in
    Runner.mean_wcs (Runner.run (Driver.cm tree) tree scaled cfg)
  in
  Alcotest.(check bool) "rack wcs <= server wcs" true (at 1 <= at 0 +. 1e-9)

let test_runner_vc_scheduler () =
  (* The OVC baseline runs through the same harness. *)
  let tree = Tree.create small_spec in
  let cfg = { Runner.default_config with n_arrivals = 300; load = 0.8 } in
  let vc = Runner.run (Driver.vc tree) tree scaled cfg in
  Alcotest.(check int) "counts consistent" 300 (vc.accepted + vc.rejected);
  (* And rejects at least as much bandwidth as CM. *)
  let tree2 = Tree.create small_spec in
  let cm = Runner.run (Driver.cm tree2) tree2 scaled cfg in
  Alcotest.(check bool)
    (Printf.sprintf "VC %.1f%% >= CM %.1f%%" (Runner.bw_rejection_rate vc)
       (Runner.bw_rejection_rate cm))
    true
    (Runner.bw_rejection_rate vc +. 1e-9 >= Runner.bw_rejection_rate cm)

(* {1 Failure injection} *)

module Failure = Cm_sim.Failure
module Tag = Cm_tag.Tag
module Cm = Cm_placement.Cm
module Types = Cm_placement.Types

let deploy_some () =
  let tree = Tree.create small_spec in
  let sched = Cm.create tree in
  let tenants =
    List.filter_map
      (fun tag ->
        match Cm.place sched (Types.request tag) with
        | Ok p -> Some (tag, p.Types.locations)
        | Error _ -> None)
      (Array.to_list (Array.sub scaled.Pool.tags 0 8))
  in
  (tree, tenants)

let test_failure_exhaustive_matches_wcs () =
  (* Over an exhaustive sweep, the measured worst survival of every
     component equals its predicted WCS. *)
  let tree, tenants = deploy_some () in
  let r = Failure.exhaustive tree tenants ~laa_level:0 in
  Alcotest.(check int) "all servers failed" (Tree.n_servers tree)
    r.domains_failed;
  List.iter
    (fun (o : Failure.tenant_outcome) ->
      Array.iteri
        (fun c predicted ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s comp %d" o.tenant_name c)
            predicted o.worst_survival.(c))
        o.predicted_wcs)
    r.outcomes

let test_failure_random_bounded_by_wcs () =
  let tree, tenants = deploy_some () in
  let rng = Cm_util.Rng.create 5 in
  let r = Failure.random rng tree tenants ~laa_level:0 ~n:20 in
  List.iter
    (fun (o : Failure.tenant_outcome) ->
      Array.iteri
        (fun c predicted ->
          Alcotest.(check bool) "sampled >= exhaustive worst" true
            (o.worst_survival.(c) +. 1e-9 >= predicted);
          Alcotest.(check bool) "mean >= worst" true
            (o.mean_survival.(c) +. 1e-9 >= o.worst_survival.(c)))
        o.predicted_wcs)
    r.outcomes

let test_failure_random_full_sample_is_exhaustive () =
  (* Sampling without replacement: drawing as many domains as exist must
     inject each exactly once, i.e. reproduce the exhaustive sweep
     bit-for-bit (pre-fix the draw was with replacement, so duplicates
     skewed [mean_survival] and missed domains weakened
     [worst_survival]). *)
  let tree, tenants = deploy_some () in
  let n = Tree.n_servers tree in
  let rng = Cm_util.Rng.create 11 in
  let r = Failure.random rng tree tenants ~laa_level:0 ~n in
  let e = Failure.exhaustive tree tenants ~laa_level:0 in
  Alcotest.(check int) "all domains injected" e.domains_failed r.domains_failed;
  List.iter2
    (fun (a : Failure.tenant_outcome) (b : Failure.tenant_outcome) ->
      Alcotest.(check string) "tenant order" b.tenant_name a.tenant_name;
      Array.iteri
        (fun c v ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s worst comp %d" a.tenant_name c)
            b.worst_survival.(c) v)
        a.worst_survival;
      Array.iteri
        (fun c v ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s mean comp %d" a.tenant_name c)
            b.mean_survival.(c) v)
        a.mean_survival)
    r.outcomes e.outcomes

let test_failure_random_clamps_n () =
  (* Asking for more domains than exist clamps instead of double-counting. *)
  let tree, tenants = deploy_some () in
  let n = Tree.n_servers tree in
  let rng = Cm_util.Rng.create 11 in
  let r = Failure.random rng tree tenants ~laa_level:0 ~n:(3 * n) in
  Alcotest.(check int) "clamped to domain count" n r.domains_failed

let test_failure_rack_level () =
  (* A tenant packed into one rack has zero rack-level survivability. *)
  let tree = Tree.create small_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:1. () in
  match Cm.place sched (Types.request tag) with
  | Error _ -> Alcotest.fail "placement failed"
  | Ok p ->
      let r = Failure.exhaustive tree [ (tag, p.locations) ] ~laa_level:1 in
      let o = List.hd r.outcomes in
      Alcotest.(check (float 1e-9)) "rack failure kills all" 0.
        o.worst_survival.(0)

let test_failure_survival_direct () =
  let tree = Tree.create small_spec in
  let tag = Tag.hose ~tier:"t" ~size:4 ~bw:1. () in
  let servers = Tree.servers tree in
  let locations = [| [ (servers.(0), 1); (servers.(1), 3) ] |] in
  let s0 = Failure.survival tree tag locations ~domain:servers.(0) ~laa_level:0 in
  Alcotest.(check (float 1e-9)) "lose 1 of 4" 0.75 s0.(0);
  let s1 = Failure.survival tree tag locations ~domain:servers.(1) ~laa_level:0 in
  Alcotest.(check (float 1e-9)) "lose 3 of 4" 0.25 s1.(0);
  let s2 = Failure.survival tree tag locations ~domain:servers.(5) ~laa_level:0 in
  Alcotest.(check (float 1e-9)) "unaffected" 1. s2.(0)

(* {1 Failure campaign: correlated schedules + recovery} *)

module Wcs = Cm_placement.Wcs

let test_failure_schedule_deterministic () =
  let make () =
    Failure.schedule (Cm_util.Rng.create 9) ~n_domains:16 ~level:1
      ~horizon:100. ~rate:0.2 ~mean_repair:10. ()
  in
  let a = make () and b = make () in
  Alcotest.(check int) "same length" (Failure.n_events a) (Failure.n_events b);
  Alcotest.(check bool) "some events" true (Failure.n_events a > 0);
  List.iter2
    (fun (x : Failure.event) (y : Failure.event) ->
      Alcotest.(check (float 0.)) "same time" x.at y.at;
      Alcotest.(check int) "same domain" x.domain_index y.domain_index)
    a.events b.events;
  let last = ref 0. in
  List.iter
    (fun (e : Failure.event) ->
      Alcotest.(check bool) "ascending" true (e.at >= !last);
      last := e.at;
      Alcotest.(check bool) "within horizon" true (e.at > 0. && e.at <= 100.);
      Alcotest.(check bool) "domain in range" true
        (e.domain_index >= 0 && e.domain_index < 16);
      match e.repair_after with
      | Some d -> Alcotest.(check bool) "repair positive" true (d > 0.)
      | None -> Alcotest.fail "mean_repair given, repair delay expected")
    a.events;
  let permanent =
    Failure.schedule (Cm_util.Rng.create 9) ~n_domains:16 ~level:1
      ~horizon:100. ~rate:0.2 ()
  in
  List.iter
    (fun (e : Failure.event) ->
      Alcotest.(check bool) "no repair drawn" true (e.repair_after = None))
    permanent.events

let test_failure_schedule_validates () =
  let bad name f =
    try
      f ();
      Alcotest.failf "%s: expected Invalid_argument" name
    with Invalid_argument _ -> ()
  in
  let rng () = Cm_util.Rng.create 1 in
  bad "n_domains 0" (fun () ->
      ignore
        (Failure.schedule (rng ()) ~n_domains:0 ~level:1 ~horizon:10. ~rate:1.
           ()));
  bad "horizon 0" (fun () ->
      ignore
        (Failure.schedule (rng ()) ~n_domains:4 ~level:1 ~horizon:0. ~rate:1.
           ()));
  bad "rate 0" (fun () ->
      ignore
        (Failure.schedule (rng ()) ~n_domains:4 ~level:1 ~horizon:10. ~rate:0.
           ()));
  bad "mean_repair 0" (fun () ->
      ignore
        (Failure.schedule (rng ()) ~n_domains:4 ~level:1 ~horizon:10. ~rate:1.
           ~mean_repair:0. ()))

let campaign_cfg seed =
  {
    Runner.default_config with
    seed;
    n_arrivals = 250;
    load = 0.9;
    ha = Some { Types.rwcs = 0.25; laa_level = 1 };
    wcs_level = 1;
  }

(* Build a rack-level schedule sized against the run's horizon and drive
   [run_with_failures]; returns the tree so callers can audit it. *)
let run_campaign ?recovery ?inspect ~repair ~seed () =
  let cfg = campaign_cfg seed in
  let tree = Tree.create small_spec in
  let horizon = Runner.horizon tree scaled cfg in
  let racks = Array.length (Tree.nodes_at_level tree 1) in
  let failures =
    Failure.schedule
      (Cm_util.Rng.create (seed + 100))
      ~n_domains:racks ~level:1 ~horizon ~rate:(6. /. horizon)
      ?mean_repair:(if repair then Some (horizon /. 8.) else None)
      ()
  in
  let r =
    Runner.run_with_failures ?recovery ?inspect (Driver.cm tree) tree scaled
      cfg ~failures
  in
  (tree, failures, r)

let check_pristine tree =
  Alcotest.(check int) "slots restored" (Tree.total_slots tree)
    (Tree.free_slots_subtree tree (Tree.root tree));
  for node = 0 to Tree.n_nodes tree - 1 do
    Alcotest.(check bool) "bw restored" true
      (Float.abs (Tree.reserved_up tree node) < 1e-3
      && Float.abs (Tree.reserved_down tree node) < 1e-3)
  done

let test_failures_empty_schedule_is_run () =
  (* With no events, [run_with_failures] is [run] bit-for-bit: same RNG
     draw order, same admissions, same WCS samples. *)
  let cfg = campaign_cfg 42 in
  let tree = Tree.create small_spec in
  let plain = Runner.run (Driver.cm tree) tree scaled cfg in
  let tree2 = Tree.create small_spec in
  let fr =
    Runner.run_with_failures (Driver.cm tree2) tree2 scaled cfg
      ~failures:{ Failure.level = 1; events = [] }
  in
  Alcotest.(check int) "accepted" plain.accepted fr.base.accepted;
  Alcotest.(check (float 0.)) "rejected bw" plain.rejected_bw
    fr.base.rejected_bw;
  Alcotest.(check (float 0.)) "mean util" plain.mean_utilization
    fr.base.mean_utilization;
  Alcotest.(check int) "wcs samples"
    (Array.length plain.wcs_per_component)
    (Array.length fr.base.wcs_per_component);
  Array.iteri
    (fun i w ->
      Alcotest.(check (float 0.)) "wcs sample" w fr.base.wcs_per_component.(i))
    plain.wcs_per_component;
  Alcotest.(check int) "no events" 0 fr.events_injected;
  Alcotest.(check bool) "slack infinite" true (fr.wcs_slack_min = infinity)

let test_failures_campaign_invariants () =
  let tree, failures, r = run_campaign ~repair:true ~seed:42 () in
  Alcotest.(check int) "all events injected" (Failure.n_events failures)
    r.events_injected;
  Alcotest.(check bool) "repairs bounded" true
    (r.events_repaired <= r.events_injected);
  Alcotest.(check bool) "some tenant hit" true (r.tenants_affected > 0);
  Alcotest.(check int) "incidents close exactly once" r.tenants_affected
    (r.recovered_full + r.recovered_partial + r.stranded);
  let restored = r.recovered_full + r.recovered_partial in
  Alcotest.(check bool) "restores cost attempts" true
    (r.recovery_attempts >= restored);
  Alcotest.(check bool) "something restored" true (restored > 0);
  (* The first recovery attempt is deferred to the next simulation tick,
     so a restore is never instantaneous. *)
  Alcotest.(check bool) "ttr positive" true (r.mean_time_to_restore > 0.);
  Alcotest.(check bool) "max ttr >= mean ttr" true
    (r.max_time_to_restore +. 1e-9 >= r.mean_time_to_restore);
  Alcotest.(check bool) "downtime covers restored incidents" true
    (r.total_downtime +. 1e-9
    >= r.mean_time_to_restore *. float_of_int restored);
  check_pristine tree

let test_failures_deterministic () =
  let go () =
    let _, _, r = run_campaign ~repair:true ~seed:42 () in
    r
  in
  let a = go () and b = go () in
  Alcotest.(check int) "accepted" a.base.accepted b.base.accepted;
  Alcotest.(check int) "affected" a.tenants_affected b.tenants_affected;
  Alcotest.(check int) "restored"
    (a.recovered_full + a.recovered_partial)
    (b.recovered_full + b.recovered_partial);
  Alcotest.(check (float 0.)) "downtime" a.total_downtime b.total_downtime;
  Alcotest.(check (float 0.)) "mean ttr" a.mean_time_to_restore
    b.mean_time_to_restore

let test_failures_permanent_blockades_released () =
  (* Never-repaired domains stay blockaded to the end of the run; the
     drain must still hand the tree back pristine. *)
  let tree, _, r = run_campaign ~repair:false ~seed:7 () in
  Alcotest.(check int) "nothing repaired" 0 r.events_repaired;
  Alcotest.(check bool) "events injected" true (r.events_injected > 0);
  check_pristine tree

let test_failures_wcs_slack_nonneg () =
  (* Eq. 7 predictions are recomputed from actual locations at the
     injection level, so realized survival can never undershoot them. *)
  let _, _, r = run_campaign ~repair:true ~seed:11 () in
  Alcotest.(check bool) "some tenant hit" true (r.tenants_affected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "slack %.3f >= 0" r.wcs_slack_min)
    true
    (r.wcs_slack_min >= -1e-9)

let test_failures_no_recovery_strands_all () =
  let recovery = { Runner.default_recovery with max_attempts = 0 } in
  let _, _, r = run_campaign ~recovery ~repair:true ~seed:42 () in
  Alcotest.(check bool) "some tenant hit" true (r.tenants_affected > 0);
  Alcotest.(check int) "no full restores" 0 r.recovered_full;
  Alcotest.(check int) "no partial restores" 0 r.recovered_partial;
  Alcotest.(check int) "no attempts" 0 r.recovery_attempts;
  Alcotest.(check int) "all stranded" r.tenants_affected r.stranded

let test_failures_inspect_reservations_consistent () =
  (* After every injection and repair the live placements must re-price
     to exactly the tree's bandwidth reservations (blockades hold slots,
     never bandwidth, so they are invisible to this audit). *)
  let audits = ref 0 in
  let inspect tree live =
    incr audits;
    let accounted =
      Reserved_bw.account tree live ~model:Cm_tag.Bandwidth.Tag_model
    in
    for l = 0 to Tree.n_levels tree - 2 do
      let live_up, _ = Tree.reserved_at_level tree ~level:l in
      Alcotest.(check (float 0.5))
        (Printf.sprintf "audit %d level %d" !audits l)
        (live_up /. 1000.) accounted.(l)
    done
  in
  let _, failures, _ = run_campaign ~inspect ~repair:true ~seed:42 () in
  Alcotest.(check bool) "inspect ran per processed event" true
    (!audits >= Failure.n_events failures)

let test_failure_exhaustive_matches_wcs_rack () =
  (* The oracle must survive the schedule refactor at every level, not
     just servers: rack-level exhaustive injection still reproduces the
     Eq. 7 prediction exactly. *)
  let tree, tenants = deploy_some () in
  let r = Failure.exhaustive tree tenants ~laa_level:1 in
  Alcotest.(check int) "all racks failed"
    (Array.length (Tree.nodes_at_level tree 1))
    r.domains_failed;
  List.iter
    (fun (o : Failure.tenant_outcome) ->
      Array.iteri
        (fun c predicted ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s comp %d" o.tenant_name c)
            predicted o.worst_survival.(c))
        o.predicted_wcs)
    r.outcomes

let test_failure_level_lifting_and_mismatch () =
  let tree = Tree.create small_spec in
  let tag = Tag.hose ~tier:"t" ~size:4 ~bw:1. () in
  let rack = (Tree.nodes_at_level tree 1).(0) in
  let rack_servers = Tree.subtree_servers tree rack in
  Alcotest.(check int) "four servers per rack" 4 (Array.length rack_servers);
  let locations =
    [| Array.to_list (Array.map (fun s -> (s, 1)) rack_servers) |]
  in
  (* Lifting agreement: naming any server of the rack as the failed
     domain at laa_level 1 is the same fault as naming the rack itself —
     the event path and [survival] lift domains identically. *)
  let via_server =
    Failure.survival tree tag locations ~domain:rack_servers.(0) ~laa_level:1
  in
  let via_rack =
    Failure.survival tree tag locations ~domain:rack ~laa_level:1
  in
  Alcotest.(check (float 0.)) "lifted = direct" via_rack.(0) via_server.(0);
  Alcotest.(check (float 1e-9)) "whole rack dies" 0. via_rack.(0);
  (* Level mismatch: the server-level Eq. 7 prediction (0.75 here) says
     nothing about losing a whole rack — predictions only bound events
     at their own level or below. *)
  let predicted_server =
    (Wcs.per_component tree tag locations ~laa_level:0).(0)
  in
  Alcotest.(check (float 1e-9)) "server-level prediction" 0.75
    predicted_server;
  Alcotest.(check bool) "rack event breaks server-level bound" true
    (via_rack.(0) < predicted_server);
  (* Scored at the matching level, the bound holds. *)
  let predicted_rack =
    (Wcs.per_component tree tag locations ~laa_level:1).(0)
  in
  Alcotest.(check bool) "matching-level bound holds" true
    (via_rack.(0) +. 1e-9 >= predicted_rack)

let prop_failure_runs_consistent =
  QCheck.Test.make ~name:"failure runs leave a consistent allocator"
    ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (seed, fseed) ->
      let cfg = { (campaign_cfg seed) with n_arrivals = 120 } in
      let tree = Tree.create small_spec in
      let horizon = Runner.horizon tree scaled cfg in
      let racks = Array.length (Tree.nodes_at_level tree 1) in
      let failures =
        Failure.schedule (Cm_util.Rng.create fseed) ~n_domains:racks ~level:1
          ~horizon ~rate:(4. /. horizon)
          ?mean_repair:
            (if fseed mod 2 = 0 then Some (horizon /. 8.) else None)
          ()
      in
      let r =
        Runner.run_with_failures (Driver.cm tree) tree scaled cfg ~failures
      in
      let pristine =
        Tree.free_slots_subtree tree (Tree.root tree) = Tree.total_slots tree
        &&
        let ok = ref true in
        for node = 0 to Tree.n_nodes tree - 1 do
          if
            Float.abs (Tree.reserved_up tree node) > 1e-3
            || Float.abs (Tree.reserved_down tree node) > 1e-3
          then ok := false
        done;
        !ok
      in
      pristine
      && r.events_injected = Failure.n_events failures
      && r.recovered_full + r.recovered_partial + r.stranded
         = r.tenants_affected
      && r.wcs_slack_min >= -1e-9)

(* {1 Golden digests for the batched and failure entry points}

   [test_hotpath] pins {!Runner.run}; these pin {!Runner.run_batched}
   and {!Runner.run_with_failures} the same way.  The constants were
   captured from the code as it stood before the three arrival loops
   were merged into one, and cover every float of the result bit for
   bit (["%h"]), every sampled series point and the telemetry counters
   each run bumps. *)

module Shard = Cm_placement.Shard
module Series = Cm_obs.Series
module Metrics = Cm_obs.Metrics

let fingerprint_result b (r : Runner.result) =
  Printf.bprintf b "%d/%d/%d/%d/%d/%d/%d/%h/%h/%h" r.arrivals r.accepted
    r.rejected r.rejected_no_slots r.rejected_no_bw r.offered_vms
    r.rejected_vms r.offered_bw r.rejected_bw r.mean_utilization;
  Array.iter (Printf.bprintf b "/%h") r.wcs_per_component

let golden_counters =
  [
    "sim.arrivals"; "sim.departures"; "sim.accepted"; "sim.rejected";
    "failure.injected"; "failure.repaired"; "recovery.replaced";
    "recovery.partial"; "recovery.stranded"; "recovery.attempts";
  ]

(* Run [f ~series_prefix] with series enabled and digest what it
   returns (through [render]), the series it sampled under [prefix] and
   the counter increments it caused. *)
let golden_digest ~prefix ~signals render f =
  let before =
    List.map (fun n -> Metrics.counter_value (Metrics.counter n)) golden_counters
  in
  let saved = Series.enabled () in
  Series.reset ();
  Series.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Series.set_enabled saved)
      (fun () -> f ~series_prefix:prefix)
  in
  let b = Buffer.create 4096 in
  render b r;
  List.iter
    (fun signal ->
      let xs, ys, dropped =
        Series.contents (Series.create (prefix ^ "." ^ signal))
      in
      Printf.bprintf b "|%s:%d" signal dropped;
      Array.iteri (fun i x -> Printf.bprintf b ",%h=%h" x ys.(i)) xs)
    signals;
  List.iter2
    (fun n v0 ->
      Printf.bprintf b "|%s+%d" n
        (Metrics.counter_value (Metrics.counter n) - v0))
    golden_counters before;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_signals = [ "utilization"; "acceptance_rate" ]

let golden_batched_small = "9e2b32e6cb49822f3427a7aa6b8da650"
let golden_batched_ha = "4a2538aca524e860d3cea993aa37dafb"

let batched_digest ~prefix ?epoch cfg =
  golden_digest ~prefix ~signals:run_signals fingerprint_result
    (fun ~series_prefix ->
      let tree = Tree.create small_spec in
      let shard = Shard.create tree in
      let r = Runner.run_batched ~series_prefix ?epoch shard scaled cfg in
      check_pristine tree;
      r)

let test_golden_run_batched () =
  let at_domains d f =
    let saved = Cm_util.Par.default_domains () in
    Cm_util.Par.set_default_domains d;
    Fun.protect ~finally:(fun () -> Cm_util.Par.set_default_domains saved) f
  in
  let small () =
    batched_digest ~prefix:"golden.batched.small" ~epoch:16
      { Runner.default_config with seed = 5; n_arrivals = 400; load = 0.9 }
  in
  let ha () =
    batched_digest ~prefix:"golden.batched.ha"
      { (campaign_cfg 9) with n_arrivals = 300; load = 1.2 }
  in
  List.iter
    (fun (name, golden, f) ->
      let d1 = at_domains 1 f and d2 = at_domains 2 f in
      Alcotest.(check string) (name ^ ": domains 1 = 2") d1 d2;
      Alcotest.(check string) (name ^ ": golden") golden d1)
    [ ("epoch 16", golden_batched_small, small); ("default epoch, HA", golden_batched_ha, ha) ]

let golden_failures_repair = "bc38fe497b2496c0d6890cd50314f375"
let golden_failures_permanent = "6b7b96ec473c39a1e4fc1f2827364caf"

let fingerprint_failures b (r : Runner.failure_result) =
  fingerprint_result b r.base;
  Printf.bprintf b "|%d/%d/%d/%d/%d/%d/%d/%d/%h/%h/%h/%h" r.events_injected
    r.events_repaired r.tenants_affected r.vms_lost r.recovered_full
    r.recovered_partial r.stranded r.recovery_attempts r.mean_time_to_restore
    r.max_time_to_restore r.total_downtime r.wcs_slack_min

let test_golden_run_with_failures () =
  let digest ~repair ~seed =
    let prefix = Printf.sprintf "golden.failures.%b.%d" repair seed in
    golden_digest ~prefix
      ~signals:(run_signals @ [ "stranded"; "ladder_depth" ])
      fingerprint_failures
      (fun ~series_prefix ->
        let cfg = campaign_cfg seed in
        let tree = Tree.create small_spec in
        let horizon = Runner.horizon tree scaled cfg in
        let racks = Array.length (Tree.nodes_at_level tree 1) in
        let failures =
          Failure.schedule
            (Cm_util.Rng.create (seed + 100))
            ~n_domains:racks ~level:1 ~horizon ~rate:(6. /. horizon)
            ?mean_repair:(if repair then Some (horizon /. 8.) else None)
            ()
        in
        let r =
          Runner.run_with_failures ~series_prefix (Driver.cm tree) tree scaled
            cfg ~failures
        in
        check_pristine tree;
        r)
  in
  Alcotest.(check string) "with repairs" golden_failures_repair
    (digest ~repair:true ~seed:42);
  Alcotest.(check string) "permanent faults" golden_failures_permanent
    (digest ~repair:false ~seed:43)

let () =
  Alcotest.run "cm_sim"
    [
      ( "runner",
        [
          Alcotest.test_case "counts consistent" `Quick
            test_runner_counts_consistent;
          Alcotest.test_case "restores tree" `Quick test_runner_restores_tree;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "replications shard deterministically" `Quick
            test_run_replications_matches_sequential;
          Alcotest.test_case "low load accepts all" `Quick
            test_low_load_accepts_everything;
          Alcotest.test_case "rejection grows with load" `Slow
            test_rejection_grows_with_load;
          Alcotest.test_case "wcs samples" `Quick test_wcs_reported_for_accepted;
          Alcotest.test_case "invalid load" `Quick test_runner_invalid_load;
          Alcotest.test_case "wcs at rack level" `Slow test_runner_wcs_level_rack;
          Alcotest.test_case "vc scheduler" `Slow test_runner_vc_scheduler;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "CM <= OVOC" `Slow test_cm_beats_ovoc;
          Alcotest.test_case "HA improves wcs" `Slow test_ha_config_improves_wcs;
          Alcotest.test_case "oppHA improves wcs" `Slow
            test_opp_ha_improves_wcs_cheaply;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "exhaustive = predicted WCS" `Quick
            test_failure_exhaustive_matches_wcs;
          Alcotest.test_case "random bounded" `Quick
            test_failure_random_bounded_by_wcs;
          Alcotest.test_case "full sample = exhaustive" `Quick
            test_failure_random_full_sample_is_exhaustive;
          Alcotest.test_case "n clamps" `Quick test_failure_random_clamps_n;
          Alcotest.test_case "rack level" `Quick test_failure_rack_level;
          Alcotest.test_case "direct survival" `Quick test_failure_survival_direct;
        ] );
      ( "failure-campaign",
        [
          Alcotest.test_case "schedule deterministic" `Quick
            test_failure_schedule_deterministic;
          Alcotest.test_case "schedule validates" `Quick
            test_failure_schedule_validates;
          Alcotest.test_case "empty schedule = run" `Quick
            test_failures_empty_schedule_is_run;
          Alcotest.test_case "campaign invariants" `Quick
            test_failures_campaign_invariants;
          Alcotest.test_case "campaign deterministic" `Quick
            test_failures_deterministic;
          Alcotest.test_case "permanent blockades released" `Quick
            test_failures_permanent_blockades_released;
          Alcotest.test_case "wcs slack non-negative" `Quick
            test_failures_wcs_slack_nonneg;
          Alcotest.test_case "max_attempts 0 strands" `Quick
            test_failures_no_recovery_strands_all;
          Alcotest.test_case "mid-run reservations consistent" `Quick
            test_failures_inspect_reservations_consistent;
          Alcotest.test_case "exhaustive oracle at rack level" `Quick
            test_failure_exhaustive_matches_wcs_rack;
          Alcotest.test_case "level lifting and mismatch" `Quick
            test_failure_level_lifting_and_mismatch;
          QCheck_alcotest.to_alcotest prop_failure_runs_consistent;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "run_batched digest, domains 1 = 2" `Quick
            test_golden_run_batched;
          Alcotest.test_case "run_with_failures digest" `Quick
            test_golden_run_with_failures;
        ] );
      ( "table1",
        [
          Alcotest.test_case "orderings" `Quick test_reserved_bw_orderings;
          Alcotest.test_case "empty account" `Quick
            test_account_zero_for_no_placements;
          Alcotest.test_case "account matches live" `Quick
            test_account_matches_tree_reservations;
        ] );
    ]
