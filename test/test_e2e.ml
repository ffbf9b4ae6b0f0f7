(* Integration tests for Cm_e2e: placement + guarantee partitioning +
   flow-level sharing, end to end on the physical tree. *)

module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Types = Cm_placement.Types
module Cm = Cm_placement.Cm
module E2e = Cm_e2e.End_to_end

let spec =
  {
    Tree.degrees = [ 2; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4. ];
  }

let deploy tree tags =
  let sched = Cm.create tree in
  List.filter_map
    (fun tag ->
      match Cm.place sched (Types.request tag) with
      | Ok p -> Some (tag, p.Types.locations)
      | Error _ -> None)
    tags

let heavy_tenants =
  [
    Cm_tag.Examples.three_tier ~n_web:6 ~n_logic:6 ~n_db:4 ~b1:120. ~b2:60.
      ~b3:40. ();
    Cm_tag.Examples.storm ~s:6 ~b:80.;
    Tag.hose ~tier:"batch" ~size:10 ~bw:150. ();
  ]

let test_tag_protection_no_violations () =
  (* The system-level theorem: CloudMirror reservations cover the
     TAG-partitioned guarantees, so no edge is violated no matter how
     much backlog or background traffic there is. *)
  let tree = Tree.create spec in
  let tenants = deploy tree heavy_tenants in
  Alcotest.(check int) "all deployed" 3 (List.length tenants);
  let rng = Cm_util.Rng.create 7 in
  let r =
    E2e.evaluate ~background_flows:64 ~rng ~tree ~tenants
      ~mode:E2e.Tag_protection ()
  in
  Alcotest.(check bool) "some edges" true (r.edges_total > 0);
  Alcotest.(check int) "zero violations" 0 r.edges_violated;
  Alcotest.(check (float 1e-9)) "zero fraction" 0. r.violation_fraction

let test_no_protection_violates_under_congestion () =
  let tree = Tree.create spec in
  let tenants = deploy tree heavy_tenants in
  let rng = Cm_util.Rng.create 7 in
  let r =
    E2e.evaluate ~background_flows:200 ~rng ~tree ~tenants
      ~mode:E2e.No_protection ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "violations appear (%d of %d)" r.edges_violated
       r.edges_total)
    true (r.edges_violated > 0);
  Alcotest.(check bool) "shortfall positive" true (r.mean_shortfall > 0.)

let test_protection_ordering () =
  (* Violation rates order: TAG <= hose <= none. *)
  let run mode =
    let tree = Tree.create spec in
    let tenants = deploy tree heavy_tenants in
    let rng = Cm_util.Rng.create 9 in
    (E2e.evaluate ~background_flows:150 ~rng ~tree ~tenants ~mode ())
      .violation_fraction
  in
  let tag = run E2e.Tag_protection in
  let hose = run E2e.Hose_protection in
  let none = run E2e.No_protection in
  Alcotest.(check bool)
    (Printf.sprintf "tag %.2f <= hose %.2f" tag hose)
    true (tag <= hose +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "hose %.2f <= none %.2f" hose none)
    true (none +. 1e-9 >= hose)

let test_hose_fails_tag_holds_under_directed_congestion () =
  (* The Fig. 4 mechanism end-to-end: a tenant whose web and db tiers
     both feed the logic tier, plus heavy unguaranteed traffic toward the
     logic server.  Hose partitioning dilutes the web tier's promise;
     TAG partitioning keeps every pair at its promise. *)
  let tree = Tree.create spec in
  let tag = Cm_tag.Examples.fig4 () in
  (* Hand-crafted split placement: logic alone on s0, senders
     elsewhere. *)
  let servers = Tree.servers tree in
  let locations =
    [|
      [ (servers.(1), 2) ] (* web *);
      [ (servers.(0), 1) ] (* logic *);
      [ (servers.(2), 2) ] (* db *);
    |]
  in
  let run mode =
    let rng = Cm_util.Rng.create 13 in
    E2e.evaluate ~rng ~tree
      ~tenants:[ (tag, locations) ]
      ~background_flows:400 ~mode ()
  in
  let tag_r = run E2e.Tag_protection in
  let hose_r = run E2e.Hose_protection in
  Alcotest.(check int) "TAG keeps every promise" 0 tag_r.edges_violated;
  Alcotest.(check bool)
    (Printf.sprintf "hose violates (%d edges, shortfall %.2f)"
       hose_r.edges_violated hose_r.mean_shortfall)
    true
    (hose_r.edges_violated > 0)

let test_external_traffic_protected () =
  let tree = Tree.create spec in
  let tag =
    Tag.create ~name:"edge" ~externals:[ "internet" ]
      ~components:[ ("web", 6) ]
      ~edges:[ (0, 1, 80., 0.); (1, 0, 0., 120.); (0, 0, 40., 40.) ]
      ()
  in
  let tenants = deploy tree [ tag ] in
  Alcotest.(check int) "deployed" 1 (List.length tenants);
  let rng = Cm_util.Rng.create 3 in
  let r =
    E2e.evaluate ~background_flows:100 ~rng ~tree ~tenants
      ~mode:E2e.Tag_protection ()
  in
  Alcotest.(check int) "no violations incl. external edges" 0 r.edges_violated

let test_report_consistency () =
  let tree = Tree.create spec in
  let tenants = deploy tree heavy_tenants in
  let rng = Cm_util.Rng.create 11 in
  let r = E2e.evaluate ~rng ~tree ~tenants ~mode:E2e.Hose_protection () in
  let sum_total =
    List.fold_left (fun a (t : E2e.tenant_report) -> a + t.edges_total) 0 r.tenants
  in
  let sum_viol =
    List.fold_left
      (fun a (t : E2e.tenant_report) -> a + t.edges_violated)
      0 r.tenants
  in
  Alcotest.(check int) "totals add up" r.edges_total sum_total;
  Alcotest.(check int) "violations add up" r.edges_violated sum_viol;
  Alcotest.(check bool) "flows counted" true (r.flows > 0);
  List.iter
    (fun (t : E2e.tenant_report) ->
      Alcotest.(check bool) "violated <= total" true
        (t.edges_violated <= t.edges_total);
      Alcotest.(check bool) "shortfall in [0,1]" true
        (t.worst_shortfall >= 0. && t.worst_shortfall <= 1.))
    r.tenants

let test_deterministic () =
  let run () =
    let tree = Tree.create spec in
    let tenants = deploy tree heavy_tenants in
    let rng = Cm_util.Rng.create 21 in
    E2e.evaluate ~background_flows:50 ~rng ~tree ~tenants
      ~mode:E2e.No_protection ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same violations" a.edges_violated b.edges_violated;
  Alcotest.(check (float 1e-12)) "same shortfall" a.mean_shortfall
    b.mean_shortfall

(* {1 Golden digests}

   Pinned from the code as it stood before [evaluate] and
   [evaluate_with_tags] shared one flow materializer: every report field
   bit for bit (["%h"]) plus the next draw of the caller's rng, so a
   change in how many draws the evaluation consumes shows up too. *)

let fingerprint b (r : E2e.report) =
  List.iter
    (fun (t : E2e.tenant_report) ->
      Printf.bprintf b "%s/%d/%d/%h;" t.tenant_name t.edges_total
        t.edges_violated t.worst_shortfall)
    r.tenants;
  Printf.bprintf b "%d/%d/%h/%h/%d|" r.edges_total r.edges_violated
    r.violation_fraction r.mean_shortfall r.flows

let digest_modes run =
  let b = Buffer.create 1024 in
  List.iter
    (fun mode ->
      let rng = Cm_util.Rng.create 17 in
      fingerprint b (run ~rng ~mode);
      Printf.bprintf b "%d|" (Cm_util.Rng.int rng 1_000_000))
    [ E2e.No_protection; E2e.Hose_protection; E2e.Tag_protection ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_spec = { spec with Tree.degrees = [ 4; 4 ] }
let golden_evaluate = "1594ae1470354c8e6148927adfb58dc9"
let golden_evaluate_sampled = "c4a36e6ccd4b178d99234e8d6a591f99"
let golden_evaluate_with_tags = "8f26bed344c63e744a6d92c88c6fb1e9"

let test_golden_evaluate () =
  let tree = Tree.create golden_spec in
  let external_tag =
    Tag.create ~name:"edge" ~externals:[ "internet" ]
      ~components:[ ("web", 6) ]
      ~edges:[ (0, 1, 80., 0.); (1, 0, 0., 120.); (0, 0, 40., 40.) ]
      ()
  in
  let tenants = deploy tree (external_tag :: heavy_tenants) in
  Alcotest.(check int) "all deployed" 4 (List.length tenants);
  Alcotest.(check string) "all pairs" golden_evaluate
    (digest_modes (fun ~rng ~mode ->
         E2e.evaluate ~background_flows:60 ~rng ~tree ~tenants ~mode ()));
  Alcotest.(check string) "sampled pairs" golden_evaluate_sampled
    (digest_modes (fun ~rng ~mode ->
         E2e.evaluate ~pairs_per_edge:5 ~background_flows:30 ~rng ~tree
           ~tenants ~mode ()))

let test_golden_evaluate_with_tags () =
  (* The sold TAG splits the same 14 VMs differently from the drifted
     one, so sold coordinates are not the actual ones. *)
  let sold =
    Tag.create ~name:"drift"
      ~components:[ ("a", 6); ("b", 8) ]
      ~edges:[ (0, 1, 60., 45.); (1, 1, 20., 20.) ]
      ()
  in
  let actual =
    Tag.create ~name:"drift"
      ~components:[ ("a", 4); ("b", 7); ("c", 3) ]
      ~edges:[ (0, 1, 150., 90.); (1, 2, 70., 160.); (2, 2, 30., 30.) ]
      ()
  in
  let tree = Tree.create golden_spec in
  let tenants =
    deploy tree (sold :: heavy_tenants)
    |> List.map (fun (tag, locations) ->
           ((if tag == sold then actual else tag), tag, locations))
  in
  Alcotest.(check int) "all deployed" 4 (List.length tenants);
  Alcotest.(check string) "stale sold TAG" golden_evaluate_with_tags
    (digest_modes (fun ~rng ~mode ->
         E2e.evaluate_with_tags ~pairs_per_edge:8 ~background_flows:60 ~rng
           ~tree ~tenants ~mode ()))

let () =
  Alcotest.run "cm_e2e"
    [
      ( "integration",
        [
          Alcotest.test_case "TAG protection holds" `Quick
            test_tag_protection_no_violations;
          Alcotest.test_case "no protection violates" `Quick
            test_no_protection_violates_under_congestion;
          Alcotest.test_case "protection ordering" `Quick test_protection_ordering;
          Alcotest.test_case "fig4 end-to-end" `Quick
            test_hose_fails_tag_holds_under_directed_congestion;
          Alcotest.test_case "external traffic protected" `Quick
            test_external_traffic_protected;
          Alcotest.test_case "report consistency" `Quick test_report_consistency;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "evaluate digest" `Quick test_golden_evaluate;
          Alcotest.test_case "evaluate_with_tags digest" `Quick
            test_golden_evaluate_with_tags;
        ] );
    ]
