module Tree = Cm_topology.Tree
module Subtree = Cm_placement.Subtree

(* One top-down pass computes every candidate's path availability: the
   (up, down) headroom clamps only shrink while descending, so each tree
   edge is visited at most once instead of once per candidate root walk.
   Two prunes cut whole branches: a subtree with fewer free slots than
   the tenant cannot contain a fitting node (free counts are subtree
   sums), and a path whose clamped availability already fails [ext]
   cannot recover below.  The selection key — fewest free slots, then
   lowest id — is order-independent, so the result equals a
   per-candidate scan over [nodes_at_level]. *)
let find_lowest_scan tree ~root ~clamps:(u0, d0) ~total_vms
    ~ext:(ext_out, ext_in) ~level =
  let eps = Tree.bw_epsilon in
  let best = ref (-1) in
  let best_free = ref max_int in
  let rec scan id lvl up down =
    if lvl = level then begin
      let free = Tree.free_slots_subtree tree id in
      if free < !best_free || (free = !best_free && id < !best) then begin
        best_free := free;
        best := id
      end
    end
    else
      Array.iter
        (fun c ->
          if Tree.free_slots_subtree tree c >= total_vms then begin
            let up = Float.min up (Tree.available_up tree c) in
            let down = Float.min down (Tree.available_down tree c) in
            if up +. eps >= ext_out && down +. eps >= ext_in then
              scan c (lvl - 1) up down
          end)
        (Tree.children tree id)
  in
  if
    Tree.free_slots_subtree tree root >= total_vms
    && u0 +. eps >= ext_out
    && d0 +. eps >= ext_in
  then scan root (Tree.level tree root) u0 d0;
  if !best < 0 then None else Some !best

let show = function None -> "none" | Some id -> string_of_int id

let check_answer tree ~root ~clamps ~total_vms ~ext ~level answer =
  let scan = find_lowest_scan tree ~root ~clamps ~total_vms ~ext ~level in
  if answer <> scan then
    Check.fail ~layer:"placement"
      "find_lowest under node %d at level %d (%d VMs, ext %g/%g): index %s, \
       scan %s"
      root level total_vms (fst ext) (snd ext) (show answer) (show scan)

let find_lowest_under tree ~root ~clamps ~total_vms ~ext ~level =
  let answer =
    Subtree.find_lowest_under tree ~root ~clamps ~total_vms ~ext ~level
  in
  check_answer tree ~root ~clamps ~total_vms ~ext ~level answer;
  answer

let find_lowest tree ~total_vms ~ext ~level =
  let answer = Subtree.find_lowest tree ~total_vms ~ext ~level in
  check_answer tree ~root:(Tree.root tree) ~clamps:(infinity, infinity)
    ~total_vms ~ext ~level answer;
  answer

let check_tree tree ~queries =
  let top = Tree.n_levels tree - 1 in
  List.iter
    (fun (total_vms, ext) ->
      for level = 0 to top do
        ignore (find_lowest tree ~total_vms ~ext ~level);
        for l = level to top do
          Array.iter
            (fun root ->
              ignore
                (find_lowest_under tree ~root
                   ~clamps:(Tree.available_to_root tree root)
                   ~total_vms ~ext ~level))
            (Tree.nodes_at_level tree l)
        done
      done)
    queries
