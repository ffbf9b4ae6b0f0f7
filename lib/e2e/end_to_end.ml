module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Types = Cm_placement.Types
module Elastic = Cm_enforce.Elastic
module Maxmin = Cm_enforce.Maxmin
module Rng = Cm_util.Rng

type enforcement_mode = No_protection | Hose_protection | Tag_protection

let mode_to_string = function
  | No_protection -> "none"
  | Hose_protection -> "hose"
  | Tag_protection -> "TAG"

type tenant_report = {
  tenant_name : string;
  edges_total : int;
  edges_violated : int;
  worst_shortfall : float;
}

type report = {
  tenants : tenant_report list;
  edges_total : int;
  edges_violated : int;
  violation_fraction : float;
  mean_shortfall : float;
  flows : int;
}

(* Tree links as Maxmin links: uplink of node n is 2n (up direction,
   toward the root) and 2n+1 (down direction). *)
let up_link n = 2 * n
let down_link n = (2 * n) + 1

let links_of_tree tree =
  let acc = ref [] in
  for n = 0 to Tree.n_nodes tree - 1 do
    if n <> Tree.root tree then begin
      let c = Tree.uplink_capacity tree n in
      acc :=
        { Maxmin.link_id = up_link n; capacity = c }
        :: { Maxmin.link_id = down_link n; capacity = c }
        :: !acc
    end
  done;
  !acc

(* Path between two servers: up-links to (and excluding) the lowest
   common ancestor, then down-links on the other side. *)
let path_between tree s1 s2 =
  if s1 = s2 then []
  else begin
    let inside node s =
      let lo, hi = Tree.server_range tree node in
      lo <= s && s <= hi
    in
    let rec ups node acc =
      if inside node s2 then (node, acc)
      else
        match Tree.parent tree node with
        | Some p -> ups p (up_link node :: acc)
        | None -> (node, acc)
    in
    let lca, up_part = ups s1 [] in
    let rec downs node acc =
      if node = lca then acc
      else
        match Tree.parent tree node with
        | Some p -> downs p (down_link node :: acc)
        | None -> acc
    in
    List.rev_append up_part (downs s2 [])
  end

let path_to_root tree s =
  List.filter_map
    (fun node -> if node = Tree.root tree then None else Some (up_link node))
    (Tree.path_to_root tree s)

(* Materialize each VM's server from the locations table. *)
let vm_servers (locations : Types.locations) =
  Array.map
    (fun placed ->
      Array.concat
        (List.map (fun (server, n) -> Array.make n server) placed))
    locations

(* Sample up to [cap] ordered pairs for an edge without replacement
   beyond necessity; deterministic given the rng. *)
let sample_pairs rng ~n_src ~n_dst ~self ~cap =
  let all = if self then n_src * (n_src - 1) else n_src * n_dst in
  if all <= 0 then []
  else if all <= cap then begin
    let acc = ref [] in
    for i = 0 to n_src - 1 do
      for j = 0 to n_dst - 1 do
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

type flow_meta = {
  tenant_ix : int;
  edge_ix : int;  (** Index into the tenant's edge array; -1 = background. *)
  promise : float;  (** The actual TAG's pair guarantee: what the traffic needs. *)
}

(* Shared tail: feasibility-cap the guarantees, run the max-min
   allocation and score each sampled pair against its promise.
   [tenant_edges] holds each tenant's (name, edge count). *)
let allocate_and_report ~links ~flows ~metas ~tenant_edges =
  (* Feasibility cap: hose-partitioned guarantees can exceed what the
     links can carry (that is the §2.2 waste); scale each flow's
     protection by its most-overloaded link so the allocator stays
     feasible — exactly what a rate limiter in front of a thinner link
     achieves. *)
  let guarantee_load = Hashtbl.create 256 in
  List.iter
    (fun (f : Maxmin.flow) ->
      List.iter
        (fun l ->
          Hashtbl.replace guarantee_load l
            (f.guarantee
            +. Option.value ~default:0. (Hashtbl.find_opt guarantee_load l)))
        f.path)
    flows;
  let capacity = Hashtbl.create 256 in
  List.iter
    (fun (l : Maxmin.link) -> Hashtbl.replace capacity l.link_id l.capacity)
    links;
  let scale_of l =
    let load = Option.value ~default:0. (Hashtbl.find_opt guarantee_load l) in
    let cap = Hashtbl.find capacity l in
    if load > cap then cap /. load else 1.
  in
  let flows =
    List.map
      (fun (f : Maxmin.flow) ->
        let factor =
          List.fold_left (fun acc l -> Float.min acc (scale_of l)) 1. f.path
        in
        { f with guarantee = f.guarantee *. factor })
      flows
  in
  let rates = Maxmin.with_guarantees ~links ~flows in
  (* The TAG promise is per VM pair: a pair whose rate falls short is a
     violation regardless of how much its edge's other (e.g. colocated)
     pairs over-deliver. *)
  let pair_sets : (int * int, int * int * float) Hashtbl.t =
    (* (tenant, edge) -> (pairs, violated, worst shortfall) *)
    Hashtbl.create 64
  in
  Array.iteri
    (fun ix (fid, rate) ->
      ignore fid;
      let m = metas.(ix) in
      if m.tenant_ix >= 0 && m.promise > 1e-9 then begin
        let key = (m.tenant_ix, m.edge_ix) in
        let n, v, w =
          Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt pair_sets key)
        in
        let violated = rate < m.promise -. 1e-6 in
        let shortfall =
          if violated then 1. -. (rate /. m.promise) else 0.
        in
        Hashtbl.replace pair_sets key
          (n + 1, (v + if violated then 1 else 0), Float.max w shortfall)
      end)
    rates;
  let shortfalls = ref [] in
  let tenant_reports =
    List.mapi
      (fun tenant_ix (name, n_edges) ->
        let edges_total = ref 0
        and edges_violated = ref 0
        and worst = ref 0. in
        for edge_ix = 0 to n_edges - 1 do
          match Hashtbl.find_opt pair_sets (tenant_ix, edge_ix) with
          | None -> ()
          | Some (_, v, w) ->
              incr edges_total;
              if v > 0 then begin
                incr edges_violated;
                worst := Float.max !worst w;
                shortfalls := w :: !shortfalls
              end
        done;
        {
          tenant_name = name;
          edges_total = !edges_total;
          edges_violated = !edges_violated;
          worst_shortfall = !worst;
        })
      tenant_edges
  in
  let edges_total =
    List.fold_left
      (fun acc (r : tenant_report) -> acc + r.edges_total)
      0 tenant_reports
  in
  let edges_violated =
    List.fold_left
      (fun acc (r : tenant_report) -> acc + r.edges_violated)
      0 tenant_reports
  in
  {
    tenants = tenant_reports;
    edges_total;
    edges_violated;
    violation_fraction =
      (if edges_total = 0 then 0.
       else float_of_int edges_violated /. float_of_int edges_total);
    mean_shortfall =
      (match !shortfalls with
      | [] -> 0.
      | l -> Cm_util.Stats.mean (Array.of_list l));
    flows = List.length flows;
  }

(* One sampled flow of a TAG edge between VMs ['v] — (component,
   index) coordinates, or servers once placed.  An external endpoint is
   its component, which guarantee partitioning sees as one pseudo VM. *)
type 'v pair =
  | Internal of 'v * 'v
  | To_external of 'v * int
  | From_external of int * 'v

let map_vms f = function
  | Internal (a, b) -> Internal (f a, f b)
  | To_external (a, x) -> To_external (f a, x)
  | From_external (x, b) -> From_external (x, f b)

let elastic_pair p =
  let vm (comp, vm) = { Elastic.comp; vm } in
  let ext comp = { Elastic.comp; vm = 0 } in
  match p with
  | Internal (a, b) -> { Elastic.src = vm a; dst = vm b }
  | To_external (a, x) -> { Elastic.src = vm a; dst = ext x }
  | From_external (x, b) -> { Elastic.src = ext x; dst = vm b }

(* Traffic to or from an external is routed through the root: up-links
   out, the same path's down-links in. *)
let path_of tree = function
  | Internal (s1, s2) -> path_between tree s1 s2
  | To_external (s, _) -> path_to_root tree s
  | From_external (_, s) ->
      List.map (fun l -> l + 1) (path_to_root tree s)

(* Every edge's active pairs, in edge order: one flow per VM on the
   tier side of an external edge, up to [cap] sampled pairs otherwise. *)
let sample_tenant rng ~cap tag =
  let acc = ref [] in
  Array.iteri
    (fun edge_ix (e : Tag.edge) ->
      let add p = acc := (edge_ix, p) :: !acc in
      if Tag.is_external tag e.src then
        for j = 0 to Tag.size tag e.dst - 1 do
          add (From_external (e.src, (e.dst, j)))
        done
      else if Tag.is_external tag e.dst then
        for i = 0 to Tag.size tag e.src - 1 do
          add (To_external ((e.src, i), e.dst))
        done
      else
        List.iter
          (fun (i, j) -> add (Internal ((e.src, i), (e.dst, j))))
          (sample_pairs rng ~n_src:(Tag.size tag e.src)
             ~n_dst:(Tag.size tag e.dst) ~self:(e.src = e.dst) ~cap))
    (Tag.edges tag);
  Array.of_list (List.rev !acc)

(* The flow materializer behind both entry points.  Each tenant is
   [(actual, sold, to_sold, locations)]: pairs are sampled from the
   [actual] TAG, whose pair guarantees are the promise; enforcement
   partitions the [sold] TAG over the same pairs, mapped by [to_sold]
   into its (component, index) coordinates, which also key
   [locations]. *)
let materialize ~pairs_per_edge ~background_flows ~rng ~tree ~mode tenants =
  let flows = ref [] and metas = ref [] and n_flows = ref 0 in
  let add path guarantee meta =
    flows :=
      { Maxmin.flow_id = !n_flows; path; demand = infinity; guarantee }
      :: !flows;
    metas := meta :: !metas;
    incr n_flows
  in
  List.iteri
    (fun tenant_ix (actual, sold, to_sold, locations) ->
      let sampled = sample_tenant rng ~cap:pairs_per_edge actual in
      let sold_pairs = Array.map (fun (_, p) -> map_vms to_sold p) sampled in
      let guarantees tag gp pairs =
        Elastic.pair_guarantees tag gp
          ~pairs:(Array.to_list (Array.map elastic_pair pairs))
        |> List.map snd |> Array.of_list
      in
      let promises =
        guarantees actual Elastic.Tag_gp (Array.map snd sampled)
      in
      let enforced =
        match mode with
        | No_protection -> Array.make (Array.length sampled) 0.
        | Hose_protection -> guarantees sold Elastic.Hose_gp sold_pairs
        | Tag_protection -> guarantees sold Elastic.Tag_gp sold_pairs
      in
      let servers = vm_servers locations in
      Array.iteri
        (fun k (edge_ix, _) ->
          let placed = map_vms (fun (c, i) -> servers.(c).(i)) sold_pairs.(k) in
          add (path_of tree placed) enforced.(k)
            { tenant_ix; edge_ix; promise = promises.(k) })
        sampled)
    tenants;
  (* Unguaranteed background congestion. *)
  let servers = Tree.servers tree in
  for _ = 1 to background_flows do
    let s1 = Rng.pick rng servers and s2 = Rng.pick rng servers in
    add (path_between tree s1 s2) 0.
      { tenant_ix = -1; edge_ix = -1; promise = 0. }
  done;
  allocate_and_report ~links:(links_of_tree tree) ~flows:(List.rev !flows)
    ~metas:(Array.of_list (List.rev !metas))
    ~tenant_edges:
      (List.map
         (fun (actual, _, _, _) ->
           (Tag.name actual, Array.length (Tag.edges actual)))
         tenants)

let evaluate ?(pairs_per_edge = 32) ?(background_flows = 0) ~rng ~tree
    ~tenants ~mode () =
  materialize ~pairs_per_edge ~background_flows ~rng ~tree ~mode
    (List.map (fun (tag, locations) -> (tag, tag, Fun.id, locations)) tenants)

(* Map (component, vm) coordinates of one TAG to the other through the
   shared global VM numbering (components concatenated in order). *)
let vm_offsets tag =
  let nc = Tag.n_components tag in
  let offs = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    offs.(c + 1) <- offs.(c) + Tag.size tag c
  done;
  offs

let of_global offs g =
  let c = ref 0 in
  while offs.(!c + 1) <= g do
    incr c
  done;
  (!c, g - offs.(!c))

let evaluate_with_tags ?(pairs_per_edge = 32) ?(background_flows = 0) ~rng
    ~tree ~tenants ~mode () =
  materialize ~pairs_per_edge ~background_flows ~rng ~tree ~mode
    (List.map
       (fun (actual, sold, locations) ->
         if Tag.n_externals actual > 0 || Tag.n_externals sold > 0 then
           invalid_arg "evaluate_with_tags: external components unsupported";
         let a_offs = vm_offsets actual and s_offs = vm_offsets sold in
         if
           a_offs.(Tag.n_components actual) <> s_offs.(Tag.n_components sold)
         then invalid_arg "evaluate_with_tags: actual/sold VM count mismatch";
         let to_sold (c, i) = of_global s_offs (a_offs.(c) + i) in
         (actual, sold, to_sold, locations))
       tenants)
