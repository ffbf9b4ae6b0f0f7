(* Turning a placed tenant into enforced flows, the way
   [Cm_e2e.End_to_end] does it internally: sample active VM pairs per
   TAG edge, route each pair over the tree, and partition the TAG's
   guarantees over the active set with ElasticSwitch's per-edge GP.
   The sampling and routing are the benchmark's own code (the
   "materialize" ledger entry); the partitioning is [Elastic]. *)

module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Types = Cm_placement.Types
module Elastic = Cm_enforce.Elastic
module Maxmin = Cm_enforce.Maxmin
module Rng = Cm_util.Rng

(* A node's uplink is link 2n upwards and 2n+1 downwards. *)
let up n = 2 * n
let down n = (2 * n) + 1

let links tree =
  let acc = ref [] in
  for n = Tree.n_nodes tree - 1 downto 0 do
    if n <> Tree.root tree then begin
      let capacity = Tree.uplink_capacity tree n in
      acc :=
        { Maxmin.link_id = up n; capacity }
        :: { Maxmin.link_id = down n; capacity }
        :: !acc
    end
  done;
  !acc

let inside tree node s =
  let lo, hi = Tree.server_range tree node in
  lo <= s && s <= hi

(* Up-links from [s1] to the lowest common ancestor, then down-links to
   [s2]. *)
let path tree s1 s2 =
  if s1 = s2 then []
  else begin
    let rec ups node acc =
      if inside tree node s2 then (node, acc)
      else ups (Tree.parent_id tree node) (up node :: acc)
    in
    let lca, up_part = ups s1 [] in
    let rec downs node acc =
      if node = lca then acc else downs (Tree.parent_id tree node) (down node :: acc)
    in
    List.rev_append up_part (downs s2 [])
  end

let to_root tree s ~link =
  let rec go node acc =
    if node = Tree.root tree then List.rev acc
    else go (Tree.parent_id tree node) (link node :: acc)
  in
  go s []

(* Server of every VM, per component. *)
let vm_servers (locations : Types.locations) =
  Array.map
    (fun placed ->
      Array.concat (List.map (fun (server, n) -> Array.make n server) placed))
    locations

(* Up to [cap] ordered VM pairs of one edge; all of them when they fit. *)
let sample_pairs rng ~n_src ~n_dst ~self ~cap =
  let all = if self then n_src * (n_src - 1) else n_src * n_dst in
  if all <= 0 then []
  else if all <= cap then begin
    let acc = ref [] in
    for i = n_src - 1 downto 0 do
      for j = n_dst - 1 downto 0 do
        if not (self && i = j) then acc := (i, j) :: !acc
      done
    done;
    !acc
  end
  else
    List.init cap (fun _ ->
        let i = Rng.int rng n_src in
        let j = ref (Rng.int rng n_dst) in
        if self then while !j = i do j := Rng.int rng n_dst done;
        (i, !j))

let endpoint comp vm = { Elastic.comp; vm }

(* Active pairs of a placed tenant with their tree paths.  Edges to or
   from an external component become one flow per VM, routed to or from
   the root through the tenant's own uplinks. *)
let materialize rng tree tag locations ~pairs_per_edge =
  let servers = vm_servers locations in
  let ext =
    let rec first x = if Tag.is_external tag x then x else first (x + 1) in
    lazy (first (Tag.n_components tag))
  in
  let acc = ref [] in
  Array.iter
    (fun (e : Tag.edge) ->
      if Tag.is_external tag e.src then
        for j = 0 to Tag.size tag e.dst - 1 do
          acc :=
            ( { Elastic.src = endpoint (Lazy.force ext) 0; dst = endpoint e.dst j },
              to_root tree servers.(e.dst).(j) ~link:down )
            :: !acc
        done
      else if Tag.is_external tag e.dst then
        for i = 0 to Tag.size tag e.src - 1 do
          acc :=
            ( { Elastic.src = endpoint e.src i; dst = endpoint (Lazy.force ext) 0 },
              to_root tree servers.(e.src).(i) ~link:up )
            :: !acc
        done
      else
        List.iter
          (fun (i, j) ->
            acc :=
              ( { Elastic.src = endpoint e.src i; dst = endpoint e.dst j },
                path tree servers.(e.src).(i) servers.(e.dst).(j) )
              :: !acc)
          (sample_pairs rng ~n_src:(Tag.size tag e.src)
             ~n_dst:(Tag.size tag e.dst) ~self:(e.src = e.dst)
             ~cap:pairs_per_edge))
    (Tag.edges tag);
  let pairs = List.rev !acc in
  (List.map fst pairs, Array.of_list (List.map snd pairs))

(* TAG-partitioned guarantee of every active pair, in order. *)
let guarantees tag pairs =
  Array.of_list (List.map snd (Elastic.pair_guarantees tag Elastic.Tag_gp ~pairs))
