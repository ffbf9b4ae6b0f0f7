(* Tests for Cm_placement.Cm: Algorithm 1 behaviour on the paper's
   examples, bandwidth-guarantee invariants, HA guarantees (Eq. 7), and
   exact release on departure. *)

module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Examples = Cm_tag.Examples
module Types = Cm_placement.Types
module Cm = Cm_placement.Cm
module Wcs = Cm_placement.Wcs

let check_float = Alcotest.(check (float 1e-6))

(* A single rack: 4 servers x 2 slots, 10 Mbps NICs — Fig. 6's topology. *)
let rack_spec =
  {
    Tree.degrees = [ 4 ];
    slots_per_server = 2;
    server_up_mbps = 10.;
    oversub = [];
  }

(* Two racks of 4 servers (8 slots each), ToR uplinks oversubscribed 4x. *)
let two_rack_spec =
  {
    Tree.degrees = [ 2; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4. ];
  }

let place_ok sched req =
  match Cm.place sched req with
  | Ok p -> p
  | Error r -> Alcotest.failf "unexpected rejection: %s" (Types.reject_to_string r)

let total_reserved_everywhere tree =
  let acc = ref 0. in
  for l = 0 to Tree.n_levels tree - 1 do
    let up, down = Tree.reserved_at_level tree ~level:l in
    acc := !acc +. up +. down
  done;
  !acc

(* {1 Fig. 6: balanced placement beats blind colocation} *)

let test_fig6_accepted () =
  let tree = Tree.create rack_spec in
  let sched = Cm.create tree in
  let p = place_ok sched (Types.request (Examples.fig6 ())) in
  Alcotest.(check int) "all 8 placed" 8 (Types.vm_count p.locations);
  (* Every server's uplink reservation must respect its 10 Mbps NIC. *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "within NIC" true (Tree.reserved_up tree s <= 10.))
    (Tree.servers tree)

let test_fig6_spreads_c () =
  (* Component C (4 VMs at 6 Mbps) cannot colocate 2-per-server (12 > 10);
     the accepted placement must put at most one C VM per server. *)
  let tree = Tree.create rack_spec in
  let sched = Cm.create tree in
  let p = place_ok sched (Types.request (Examples.fig6 ())) in
  List.iter
    (fun (_, n) -> Alcotest.(check int) "one C per server" 1 n)
    p.locations.(2)

(* {1 Colocation of heavily-communicating tiers} *)

let test_trunk_pair_colocated () =
  (* Two independent trunk pairs, 32 VMs total on a 32-slot datacenter:
     the tenant only fits under the root, so Colocate must group each
     pair into one rack — splitting a pair across racks would need
     8*250 = 2000 Mbps on a 1000 Mbps ToR uplink. *)
  let spec = { two_rack_spec with Tree.slots_per_server = 4 } in
  let tree = Tree.create spec in
  let sched = Cm.create tree in
  let tag =
    Tag.create ~name:"pairs"
      ~components:[ ("u", 8); ("v", 8); ("x", 8); ("y", 8) ]
      ~edges:
        [
          (0, 1, 250., 250.);
          (1, 0, 250., 250.);
          (2, 3, 250., 250.);
          (3, 2, 250., 250.);
        ]
      ()
  in
  let p = place_ok sched (Types.request tag) in
  Alcotest.(check int) "placed" 32 (Types.vm_count p.locations);
  let tor_up, tor_down = Tree.reserved_at_level tree ~level:1 in
  check_float "no ToR up reservation" 0. tor_up;
  check_float "no ToR down reservation" 0. tor_down;
  (* Each communicating pair shares a rack. *)
  let racks_of c =
    p.locations.(c)
    |> List.map (fun (s, _) -> Option.get (Tree.parent tree s))
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "u with v" true (racks_of 0 = racks_of 1);
  Alcotest.(check bool) "x with y" true (racks_of 2 = racks_of 3);
  Alcotest.(check int) "pair in one rack" 1 (List.length (racks_of 0))

let test_storm_split_reserves_single_trunk () =
  (* Place Storm so each component pair shares a rack; the classic Fig. 3
     check is covered by the accounting tests — here we verify end-to-end
     that CM's reservations on every uplink equal the Eq. 1 requirement for
     the final placement (no stale deltas). *)
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Examples.storm ~s:8 ~b:100. in
  let p = place_ok sched (Types.request tag) in
  (* Rebuild inside-counts per node and compare with actual reservations. *)
  let n_comp = Tag.n_components tag in
  let inside_of node =
    let lo, hi = Tree.server_range tree node in
    let counts = Array.make n_comp 0 in
    Array.iteri
      (fun c placed ->
        List.iter
          (fun (s, n) -> if s >= lo && s <= hi then counts.(c) <- counts.(c) + n)
          placed)
      p.locations;
    counts
  in
  for node = 0 to Tree.n_nodes tree - 1 do
    if node <> Tree.root tree then begin
      let inside = inside_of node in
      let out, into = Bandwidth.required Bandwidth.Tag_model tag ~inside in
      check_float
        (Printf.sprintf "up reservation node %d" node)
        out (Tree.reserved_up tree node);
      check_float
        (Printf.sprintf "down reservation node %d" node)
        into (Tree.reserved_down tree node)
    end
  done

(* {1 Rejection} *)

let test_reject_no_slots () =
  let tree = Tree.create rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"big" ~size:9 ~bw:1. () in
  (match Cm.place sched (Types.request tag) with
  | Error Types.No_slots -> ()
  | Error Types.No_bandwidth -> Alcotest.fail "expected No_slots"
  | Ok _ -> Alcotest.fail "expected rejection");
  check_float "tree untouched" 0. (total_reserved_everywhere tree)

let test_reject_no_bandwidth () =
  let tree = Tree.create rack_spec in
  let sched = Cm.create tree in
  (* 8 VMs each demanding 9 Mbps hose: any server hosting 2 needs
     min(2,6)*9 = 18 > 10; hosting them 1-per-server is impossible with
     only 4 servers. *)
  let tag = Tag.hose ~tier:"h" ~size:8 ~bw:9. () in
  (match Cm.place sched (Types.request tag) with
  | Error Types.No_bandwidth -> ()
  | Error Types.No_slots -> Alcotest.fail "expected No_bandwidth"
  | Ok _ -> Alcotest.fail "expected rejection");
  Alcotest.(check int) "slots restored" 8
    (Tree.free_slots_subtree tree (Tree.root tree));
  check_float "bw restored" 0. (total_reserved_everywhere tree)

let test_accept_after_reject () =
  (* A failed placement must not poison the tree for the next tenant. *)
  let tree = Tree.create rack_spec in
  let sched = Cm.create tree in
  ignore (Cm.place sched (Types.request (Tag.hose ~tier:"h" ~size:8 ~bw:9. ())));
  let p = place_ok sched (Types.request (Examples.fig6 ())) in
  Alcotest.(check int) "fits" 8 (Types.vm_count p.locations)

(* {1 Release} *)

let test_release_restores_everything () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let p1 = place_ok sched (Types.request (Examples.storm ~s:8 ~b:50.)) in
  let p2 =
    place_ok sched (Types.request (Examples.three_tier ~b1:20. ~b2:10. ~b3:5. ()))
  in
  Cm.release sched p1;
  Cm.release sched p2;
  Alcotest.(check int) "slots back" (Tree.total_slots tree)
    (Tree.free_slots_subtree tree (Tree.root tree));
  check_float "bandwidth back" 0. (total_reserved_everywhere tree)

let test_release_independent_tenants () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let p1 = place_ok sched (Types.request (Tag.hose ~tier:"a" ~size:8 ~bw:100. ())) in
  let before = Tree.free_slots_subtree tree (Tree.root tree) in
  let p2 = place_ok sched (Types.request (Tag.hose ~tier:"b" ~size:8 ~bw:100. ())) in
  Cm.release sched p2;
  Alcotest.(check int) "only p2 released" before
    (Tree.free_slots_subtree tree (Tree.root tree));
  Cm.release sched p1

(* {1 HA guarantees (Eq. 7)} *)

let max_per_server locations =
  Array.fold_left
    (fun acc placed ->
      List.fold_left (fun a (_, n) -> max a n) acc placed)
    0 locations

let test_ha_eq7_cap_enforced () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:10. () in
  let ha = { Types.rwcs = 0.5; laa_level = 0 } in
  let p = place_ok sched (Types.request ~ha tag) in
  Alcotest.(check bool) "<= 4 per server" true (max_per_server p.locations <= 4);
  let wcs = (Wcs.per_component tree tag p.locations ~laa_level:0).(0) in
  Alcotest.(check bool) "wcs >= 0.5" true (wcs >= 0.5)

let test_ha_rwcs_75 () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:10. () in
  let ha = { Types.rwcs = 0.75; laa_level = 0 } in
  let p = place_ok sched (Types.request ~ha tag) in
  Alcotest.(check bool) "<= 2 per server" true (max_per_server p.locations <= 2)

let test_ha_eq7_bound_values () =
  Alcotest.(check int) "8 @ 0.5" 4 (Types.eq7_bound ~n_total:8 ~rwcs:0.5);
  Alcotest.(check int) "8 @ 0.75" 2 (Types.eq7_bound ~n_total:8 ~rwcs:0.75);
  Alcotest.(check int) "1 @ 0.75 floors to 1" 1
    (Types.eq7_bound ~n_total:1 ~rwcs:0.75);
  Alcotest.(check int) "8 @ 0" 8 (Types.eq7_bound ~n_total:8 ~rwcs:0.)

let test_ha_at_tor_level () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:10. () in
  let ha = { Types.rwcs = 0.5; laa_level = 1 } in
  let p = place_ok sched (Types.request ~ha tag) in
  (* At most 4 VMs under any single ToR. *)
  let per_tor = Hashtbl.create 4 in
  Array.iter
    (List.iter (fun (s, n) ->
         let tor = Option.get (Tree.parent tree s) in
         let cur = Option.value ~default:0 (Hashtbl.find_opt per_tor tor) in
         Hashtbl.replace per_tor tor (cur + n)))
    p.locations;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check bool) "<= 4 per rack" true (n <= 4))
    per_tor

(* {1 Opportunistic HA} *)

let test_opp_ha_spreads_when_bw_plenty () =
  (* Low-demand tenant, plenty of bandwidth: opportunistic HA should
     spread VMs instead of packing one server. *)
  let tree = Tree.create two_rack_spec in
  let policy = { Cm.default_policy with opportunistic_ha = true } in
  let sched = Cm.create ~policy tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:1. () in
  let p = place_ok sched (Types.request tag) in
  let wcs = (Wcs.per_component tree tag p.locations ~laa_level:0).(0) in
  (* Default CM would pack all 8 into one server (wcs = 0). *)
  Alcotest.(check bool) "spread improves wcs" true (wcs > 0.);
  (* Bandwidth guarantees still reserved correctly. *)
  Alcotest.(check int) "all placed" 8 (Types.vm_count p.locations)

let test_default_cm_packs_low_bw () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:1. () in
  let p = place_ok sched (Types.request tag) in
  let wcs = (Wcs.per_component tree tag p.locations ~laa_level:0).(0) in
  check_float "packed on one server" 0. wcs

(* {1 Ablation policies} *)

let test_balance_only_policy () =
  let tree = Tree.create rack_spec in
  let policy = { Cm.default_policy with colocate = false } in
  let sched = Cm.create ~policy tree in
  let p = place_ok sched (Types.request (Examples.fig6 ())) in
  Alcotest.(check int) "placed" 8 (Types.vm_count p.locations)

let test_coloc_only_policy () =
  let tree = Tree.create two_rack_spec in
  let policy = { Cm.default_policy with balance = false } in
  let sched = Cm.create ~policy tree in
  let p = place_ok sched (Types.request (Examples.storm ~s:4 ~b:10.)) in
  Alcotest.(check int) "placed" 16 (Types.vm_count p.locations)

(* {1 External components end-to-end} *)

let test_external_traffic_reserved_to_root () =
  (* A tenant with Internet-bound traffic must have that bandwidth
     reserved on the whole path to the root, wherever it lands. *)
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag =
    Tag.create ~name:"edge-service" ~externals:[ "internet" ]
      ~components:[ ("web", 4) ]
      ~edges:[ (0, 1, 50., 0.); (1, 0, 0., 120.) ]
      ()
  in
  let p = place_ok sched (Types.request tag) in
  (* Every level's uplinks must carry the full external demand. *)
  for level = 0 to Tree.n_levels tree - 2 do
    let up, down = Tree.reserved_at_level tree ~level in
    check_float (Printf.sprintf "out at level %d" level) 200. up;
    check_float (Printf.sprintf "in at level %d" level) 480. down
  done;
  Cm.release sched p;
  check_float "released" 0. (total_reserved_everywhere tree)

let test_external_demand_can_reject () =
  (* External demand above the root path's capacity must be rejected. *)
  let tree = Tree.create two_rack_spec in
  (* ToR uplink capacity = 4 * 1000 / 4 = 1000 Mbps per direction;
     8 VMs each receiving 300 Mbps from the Internet need 2400 Mbps down
     on some ToR or split across both (still 1200 each). *)
  let sched = Cm.create tree in
  let tag =
    Tag.create ~name:"greedy" ~externals:[ "internet" ]
      ~components:[ ("web", 8) ]
      ~edges:[ (1, 0, 0., 300.) ]
      ()
  in
  (match Cm.place sched (Types.request tag) with
  | Error Types.No_bandwidth -> ()
  | Error Types.No_slots -> Alcotest.fail "expected bandwidth rejection"
  | Ok _ -> Alcotest.fail "expected rejection");
  check_float "clean after reject" 0. (total_reserved_everywhere tree)

(* {1 WCS metric} *)

let test_wcs_values () =
  let tree = Tree.create two_rack_spec in
  let tag = Tag.hose ~tier:"t" ~size:4 ~bw:1. () in
  let servers = Tree.servers tree in
  let locations = [| [ (servers.(0), 2); (servers.(1), 1); (servers.(2), 1) ] |] in
  let wcs = Wcs.per_component tree tag locations ~laa_level:0 in
  check_float "server-level wcs" 0.5 wcs.(0);
  (* servers 0,1,2,3 share rack 0 in this spec -> rack failure kills all. *)
  let wcs_tor = Wcs.per_component tree tag locations ~laa_level:1 in
  check_float "rack-level wcs" 0. wcs_tor.(0)

let test_wcs_empty_component () =
  let tree = Tree.create two_rack_spec in
  let tag = Tag.hose ~tier:"t" ~size:4 ~bw:1. () in
  check_float "no placement -> 0" 0.
    (Wcs.per_component tree tag [| [] |] ~laa_level:0).(0)

(* {1 Auto-scaling} *)

let reservations_match_eq1 tree tag (locations : Types.locations) =
  let n_comp = Tag.n_components tag in
  for node = 0 to Tree.n_nodes tree - 1 do
    if node <> Tree.root tree then begin
      let lo, hi = Tree.server_range tree node in
      let inside = Array.make n_comp 0 in
      Array.iteri
        (fun c placed ->
          List.iter
            (fun (s, n) -> if s >= lo && s <= hi then inside.(c) <- inside.(c) + n)
            placed)
        locations;
      let out, into = Bandwidth.required Bandwidth.Tag_model tag ~inside in
      check_float (Printf.sprintf "node %d up" node) out
        (Tree.reserved_up tree node);
      check_float (Printf.sprintf "node %d down" node) into
        (Tree.reserved_down tree node)
    end
  done

let test_resize_grow () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Examples.three_tier ~b1:20. ~b2:10. ~b3:5. () in
  let p = place_ok sched (Types.request tag) in
  match Cm.resize sched p ~comp:0 ~new_size:10 with
  | Error r -> Alcotest.failf "grow rejected: %s" (Types.reject_to_string r)
  | Ok p2 ->
      Alcotest.(check int) "new vm count" 18 (Types.vm_count p2.locations);
      Alcotest.(check int) "tag resized" 10 (Tag.size p2.req.tag 0);
      (* Every uplink reservation equals the new Eq. 1 requirement. *)
      reservations_match_eq1 tree p2.req.tag p2.locations;
      Cm.release sched p2;
      check_float "release exact" 0. (total_reserved_everywhere tree);
      Alcotest.(check int) "slots back" (Tree.total_slots tree)
        (Tree.free_slots_subtree tree (Tree.root tree))

let test_resize_shrink () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:12 ~bw:50. () in
  let p = place_ok sched (Types.request tag) in
  match Cm.resize sched p ~comp:0 ~new_size:5 with
  | Error r -> Alcotest.failf "shrink rejected: %s" (Types.reject_to_string r)
  | Ok p2 ->
      Alcotest.(check int) "fewer vms" 5 (Types.vm_count p2.locations);
      reservations_match_eq1 tree p2.req.tag p2.locations;
      Alcotest.(check int) "slots freed"
        (Tree.total_slots tree - 5)
        (Tree.free_slots_subtree tree (Tree.root tree));
      Cm.release sched p2;
      check_float "release exact" 0. (total_reserved_everywhere tree)

let test_resize_identity () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:4 ~bw:10. () in
  let p = place_ok sched (Types.request tag) in
  (match Cm.resize sched p ~comp:0 ~new_size:4 with
  | Ok p2 -> Alcotest.(check bool) "same placement" true (p2 == p)
  | Error _ -> Alcotest.fail "identity resize rejected");
  Cm.release sched p

let test_resize_grow_rejected_leaves_intact () =
  let tree = Tree.create rack_spec in
  (* 8 slots total. *)
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:6 ~bw:1. () in
  let p = place_ok sched (Types.request tag) in
  (match Cm.resize sched p ~comp:0 ~new_size:20 with
  | Error Types.No_slots -> ()
  | Error Types.No_bandwidth -> Alcotest.fail "expected No_slots"
  | Ok _ -> Alcotest.fail "expected rejection");
  (* Old deployment unchanged and still valid. *)
  reservations_match_eq1 tree tag p.locations;
  Cm.release sched p;
  check_float "release exact" 0. (total_reserved_everywhere tree)

let test_resize_respects_ha () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:5. () in
  let ha = { Types.rwcs = 0.5; laa_level = 0 } in
  let p = place_ok sched (Types.request ~ha tag) in
  match Cm.resize sched p ~comp:0 ~new_size:16 with
  | Error r -> Alcotest.failf "grow rejected: %s" (Types.reject_to_string r)
  | Ok p2 ->
      (* Eq. 7 with the new size: at most 8 VMs per server. *)
      Alcotest.(check bool) "eq7 under new size" true
        (max_per_server p2.locations <= 8);
      let wcs = (Wcs.per_component tree p2.req.tag p2.locations ~laa_level:0).(0) in
      Alcotest.(check bool) "wcs still >= 0.5" true (wcs >= 0.5);
      Cm.release sched p2

let test_resize_invalid_args () =
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:4 ~bw:1. () in
  let p = place_ok sched (Types.request tag) in
  Alcotest.check_raises "zero size" (Invalid_argument "")
    (fun () ->
      try ignore (Cm.resize sched p ~comp:0 ~new_size:0)
      with Invalid_argument _ -> raise (Invalid_argument ""));
  Cm.release sched p

let test_resize_repeated_cycles () =
  (* Many grow/shrink cycles must not leak or drift. *)
  let tree = Tree.create two_rack_spec in
  let sched = Cm.create tree in
  let tag = Tag.hose ~tier:"t" ~size:6 ~bw:20. () in
  let p = ref (place_ok sched (Types.request tag)) in
  for i = 1 to 6 do
    let target = if i mod 2 = 0 then 6 else 14 in
    match Cm.resize sched !p ~comp:0 ~new_size:target with
    | Ok p2 ->
        Alcotest.(check int) "size tracks" target (Tag.size p2.req.tag 0);
        reservations_match_eq1 tree p2.req.tag p2.locations;
        p := p2
    | Error r -> Alcotest.failf "cycle %d rejected: %s" i (Types.reject_to_string r)
  done;
  Cm.release sched !p;
  check_float "no drift" 0. (total_reserved_everywhere tree);
  Alcotest.(check int) "no slot leak" (Tree.total_slots tree)
    (Tree.free_slots_subtree tree (Tree.root tree))

(* {1 Heterogeneous VM types (slot costs)} *)

let test_hetero_slot_accounting () =
  (* A big-VM tier (4 slots each) and a small-VM tier on one rack. *)
  let tree = Tree.create rack_spec in
  (* 4 servers x 2 slots. *)
  let sched = Cm.create tree in
  let tag =
    Tag.create ~name:"hetero" ~vm_slots:[ 2; 1 ]
      ~components:[ ("big", 2); ("small", 4) ]
      ~edges:[ (0, 1, 2., 1.) ]
      ()
  in
  Alcotest.(check int) "slot demand" 8 (Tag.total_slot_demand tag);
  let p = place_ok sched (Types.request tag) in
  Alcotest.(check int) "6 VMs placed" 6 (Types.vm_count p.locations);
  Alcotest.(check int) "rack saturated" 0
    (Tree.free_slots_subtree tree (Tree.root tree));
  (* A big VM fills its 2-slot server alone. *)
  List.iter
    (fun (server, n) ->
      Alcotest.(check int)
        (Printf.sprintf "server %d holds one big VM" server)
        1 n;
      Alcotest.(check int) "its server is full" 0 (Tree.free_slots tree server))
    p.locations.(0);
  Cm.release sched p;
  Alcotest.(check int) "slots restored" (Tree.total_slots tree)
    (Tree.free_slots_subtree tree (Tree.root tree))

let test_hetero_rejects_on_slot_demand () =
  let tree = Tree.create rack_spec in
  let sched = Cm.create tree in
  (* 5 VMs x 2 slots = 10 > 8 available. *)
  let tag =
    Tag.create ~vm_slots:[ 2 ] ~components:[ ("big", 5) ] ~edges:[] ()
  in
  match Cm.place sched (Types.request tag) with
  | Error Types.No_slots -> ()
  | Error Types.No_bandwidth -> Alcotest.fail "expected No_slots"
  | Ok _ -> Alcotest.fail "expected rejection"

let test_hetero_vm_slots_validation () =
  Alcotest.check_raises "mismatch" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Tag.create ~vm_slots:[ 1 ]
             ~components:[ ("a", 1); ("b", 1) ]
             ~edges:[] ())
      with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "non-positive" (Invalid_argument "")
    (fun () ->
      try
        ignore (Tag.create ~vm_slots:[ 0 ] ~components:[ ("a", 1) ] ~edges:[] ())
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_hetero_format_roundtrip () =
  let text = "tag h\ncomponent big 2 4\ncomponent small 3\nedge big small 5 5\n" in
  match Cm_tag.Tag_format.of_string text with
  | Error e ->
      Alcotest.failf "parse: %s" (Cm_tag.Tag_format.error_to_string e)
  | Ok t ->
      Alcotest.(check int) "big slots" 4 (Tag.vm_slots t 0);
      Alcotest.(check int) "small slots" 1 (Tag.vm_slots t 1);
      (match Cm_tag.Tag_format.of_string (Cm_tag.Tag_format.to_text t) with
      | Error e ->
          Alcotest.failf "reparse: %s" (Cm_tag.Tag_format.error_to_string e)
      | Ok t2 -> Alcotest.(check int) "slots survive" 4 (Tag.vm_slots t2 0))

let test_hetero_all_schedulers () =
  let tag =
    Tag.create ~name:"hetero" ~vm_slots:[ 2; 1 ]
      ~components:[ ("big", 2); ("small", 3) ]
      ~edges:[ (0, 1, 10., 10.) ]
      ()
  in
  List.iter
    (fun (label, make) ->
      let tree = Tree.create two_rack_spec in
      let sched = make tree in
      match sched.Cm_sim.Driver.place (Types.request tag) with
      | Error r ->
          Alcotest.failf "%s rejected: %s" label (Types.reject_to_string r)
      | Ok p ->
          Alcotest.(check int)
            (label ^ " slots held")
            (Tree.total_slots tree - 7)
            (Tree.free_slots_subtree tree (Tree.root tree));
          sched.Cm_sim.Driver.release p;
          Alcotest.(check int)
            (label ^ " slots restored")
            (Tree.total_slots tree)
            (Tree.free_slots_subtree tree (Tree.root tree)))
    [
      ("cm", fun t -> Cm_sim.Driver.cm t);
      ("ovoc", fun t -> Cm_sim.Driver.oktopus t);
      ("secondnet", Cm_sim.Driver.secondnet);
    ]

(* {1 Property: place-release cycles never drift} *)

(* Random multi-tier TAGs: wherever CM places them, every uplink must
   carry exactly the model requirement, and release must restore the
   tree bit-for-bit. *)
let random_small_tag =
  let open QCheck.Gen in
  let* n_comp = int_range 1 4 in
  let* sizes = list_repeat n_comp (int_range 1 6) in
  let* vm_slots = list_repeat n_comp (int_range 1 2) in
  let components = List.mapi (fun i s -> (Printf.sprintf "c%d" i, s)) sizes in
  let* edges =
    let all_pairs =
      List.concat_map
        (fun i -> List.map (fun j -> (i, j)) (List.init n_comp Fun.id))
        (List.init n_comp Fun.id)
    in
    let pick (i, j) =
      let* keep = frequency [ (2, return false); (1, return true) ] in
      if not keep then return None
      else
        let* s = float_range 0. 120. in
        if i = j then return (Some (i, j, s, s))
        else
          let* r = float_range 0. 120. in
          return (Some (i, j, s, r))
    in
    let* opts = flatten_l (List.map pick all_pairs) in
    return (List.filter_map Fun.id opts)
  in
  return (Tag.create ~vm_slots ~components ~edges ())

let prop_reservations_always_exact =
  QCheck.Test.make ~name:"CM reservations equal Eq.1 for random TAGs"
    ~count:150 (QCheck.make random_small_tag) (fun tag ->
      let tree = Tree.create two_rack_spec in
      let sched = Cm.create tree in
      match Cm.place sched (Types.request tag) with
      | Error _ -> true
      | Ok p ->
          let n_comp = Tag.n_components tag in
          let ok = ref true in
          for node = 0 to Tree.n_nodes tree - 1 do
            if node <> Tree.root tree then begin
              let lo, hi = Tree.server_range tree node in
              let inside = Array.make n_comp 0 in
              Array.iteri
                (fun c placed ->
                  List.iter
                    (fun (s, n) ->
                      if s >= lo && s <= hi then inside.(c) <- inside.(c) + n)
                    placed)
                p.locations;
              let out, into =
                Bandwidth.required Bandwidth.Tag_model tag ~inside
              in
              if
                Float.abs (out -. Tree.reserved_up tree node) > 1e-6
                || Float.abs (into -. Tree.reserved_down tree node) > 1e-6
              then ok := false
            end
          done;
          Cm.release sched p;
          !ok
          && Float.abs (total_reserved_everywhere tree) < 1e-6
          && Tree.free_slots_subtree tree (Tree.root tree)
             = Tree.total_slots tree)

let prop_resize_preserves_exactness =
  QCheck.Test.make ~name:"resize keeps reservations exact" ~count:60
    QCheck.(pair (int_range 1 10) (int_range 1 12))
    (fun (initial, target) ->
      let tree = Tree.create two_rack_spec in
      let sched = Cm.create tree in
      let tag =
        Tag.create
          ~components:[ ("a", initial); ("b", 3) ]
          ~edges:[ (0, 1, 40., 40.); (1, 0, 40., 40.) ]
          ()
      in
      match Cm.place sched (Types.request tag) with
      | Error _ -> true
      | Ok p -> (
          match Cm.resize sched p ~comp:0 ~new_size:target with
          | Error _ ->
              Cm.release sched p;
              Float.abs (total_reserved_everywhere tree) < 1e-6
          | Ok p2 ->
              let tag2 = p2.req.tag in
              let n_comp = Tag.n_components tag2 in
              let ok = ref true in
              for node = 0 to Tree.n_nodes tree - 1 do
                if node <> Tree.root tree then begin
                  let lo, hi = Tree.server_range tree node in
                  let inside = Array.make n_comp 0 in
                  Array.iteri
                    (fun c placed ->
                      List.iter
                        (fun (s, n) ->
                          if s >= lo && s <= hi then
                            inside.(c) <- inside.(c) + n)
                        placed)
                    p2.locations;
                  let out, into =
                    Bandwidth.required Bandwidth.Tag_model tag2 ~inside
                  in
                  if
                    Float.abs (out -. Tree.reserved_up tree node) > 1e-6
                    || Float.abs (into -. Tree.reserved_down tree node) > 1e-6
                  then ok := false
                end
              done;
              Cm.release sched p2;
              !ok && Float.abs (total_reserved_everywhere tree) < 1e-6))

let prop_place_release_no_drift =
  QCheck.Test.make ~name:"place/release cycles restore tree" ~count:60
    QCheck.(pair (int_range 1 16) (int_range 1 60))
    (fun (size, bw) ->
      let tree = Tree.create two_rack_spec in
      let sched = Cm.create tree in
      let tag = Tag.hose ~tier:"t" ~size ~bw:(float_of_int bw) () in
      let ok = ref true in
      for _ = 1 to 5 do
        match Cm.place sched (Types.request tag) with
        | Ok p -> Cm.release sched p
        | Error _ -> ()
      done;
      if Tree.free_slots_subtree tree (Tree.root tree) <> Tree.total_slots tree
      then ok := false;
      for node = 0 to Tree.n_nodes tree - 1 do
        if
          Float.abs (Tree.reserved_up tree node) > 1e-6
          || Float.abs (Tree.reserved_down tree node) > 1e-6
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "cm_placement"
    [
      ( "fig6",
        [
          Alcotest.test_case "accepted" `Quick test_fig6_accepted;
          Alcotest.test_case "spreads C" `Quick test_fig6_spreads_c;
        ] );
      ( "colocation",
        [
          Alcotest.test_case "trunk pair colocated" `Quick
            test_trunk_pair_colocated;
          Alcotest.test_case "reservations match Eq.1" `Quick
            test_storm_split_reserves_single_trunk;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "no slots" `Quick test_reject_no_slots;
          Alcotest.test_case "no bandwidth" `Quick test_reject_no_bandwidth;
          Alcotest.test_case "accept after reject" `Quick test_accept_after_reject;
        ] );
      ( "release",
        [
          Alcotest.test_case "restores everything" `Quick
            test_release_restores_everything;
          Alcotest.test_case "independent tenants" `Quick
            test_release_independent_tenants;
        ] );
      ( "ha",
        [
          Alcotest.test_case "eq7 cap enforced" `Quick test_ha_eq7_cap_enforced;
          Alcotest.test_case "rwcs 75%" `Quick test_ha_rwcs_75;
          Alcotest.test_case "eq7 bound values" `Quick test_ha_eq7_bound_values;
          Alcotest.test_case "laa at ToR" `Quick test_ha_at_tor_level;
        ] );
      ( "opportunistic-ha",
        [
          Alcotest.test_case "spreads when bw plenty" `Quick
            test_opp_ha_spreads_when_bw_plenty;
          Alcotest.test_case "default packs low bw" `Quick
            test_default_cm_packs_low_bw;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "balance only" `Quick test_balance_only_policy;
          Alcotest.test_case "coloc only" `Quick test_coloc_only_policy;
        ] );
      ( "externals",
        [
          Alcotest.test_case "reserved to root" `Quick
            test_external_traffic_reserved_to_root;
          Alcotest.test_case "can reject" `Quick test_external_demand_can_reject;
        ] );
      ( "wcs",
        [
          Alcotest.test_case "values" `Quick test_wcs_values;
          Alcotest.test_case "empty component" `Quick test_wcs_empty_component;
        ] );
      ( "auto-scaling",
        [
          Alcotest.test_case "grow" `Quick test_resize_grow;
          Alcotest.test_case "shrink" `Quick test_resize_shrink;
          Alcotest.test_case "identity" `Quick test_resize_identity;
          Alcotest.test_case "rejected grow intact" `Quick
            test_resize_grow_rejected_leaves_intact;
          Alcotest.test_case "respects HA" `Quick test_resize_respects_ha;
          Alcotest.test_case "invalid args" `Quick test_resize_invalid_args;
          Alcotest.test_case "repeated cycles" `Quick test_resize_repeated_cycles;
        ] );
      ( "heterogeneous-vms",
        [
          Alcotest.test_case "slot accounting" `Quick test_hetero_slot_accounting;
          Alcotest.test_case "rejects on slot demand" `Quick
            test_hetero_rejects_on_slot_demand;
          Alcotest.test_case "validation" `Quick test_hetero_vm_slots_validation;
          Alcotest.test_case "format round trip" `Quick
            test_hetero_format_roundtrip;
          Alcotest.test_case "all schedulers" `Quick test_hetero_all_schedulers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_place_release_no_drift;
            prop_reservations_always_exact;
            prop_resize_preserves_exactness;
          ] );
    ]
