(** Placement oracle: FindLowestSubtree (paper §4) as one plain
    top-down scan, and checks that {!Cm_placement.Subtree}'s index
    descent returns the same node for every query. *)

val find_lowest_scan :
  Cm_topology.Tree.t ->
  root:int ->
  clamps:float * float ->
  total_vms:int ->
  ext:float * float ->
  level:int ->
  int option
(** Same contract as [Subtree.find_lowest_under]: the level-[level]
    node under [root] with the fewest free slots (ties to the lowest
    id) that fits [total_vms] and whose clamped path availability
    covers the external (out, in) demand [ext].  Reads the tree only;
    never touches the availability index. *)

val check_answer :
  Cm_topology.Tree.t ->
  root:int ->
  clamps:float * float ->
  total_vms:int ->
  ext:float * float ->
  level:int ->
  int option ->
  unit
(** [check_answer ... answer] raises {!Check.Mismatch} unless [answer]
    is {!find_lowest_scan}'s answer to the same query. *)

val find_lowest :
  Cm_topology.Tree.t ->
  total_vms:int ->
  ext:float * float ->
  level:int ->
  int option
(** [Subtree.find_lowest], checked against the scan over the whole
    tree. *)

val find_lowest_under :
  Cm_topology.Tree.t ->
  root:int ->
  clamps:float * float ->
  total_vms:int ->
  ext:float * float ->
  level:int ->
  int option
(** [Subtree.find_lowest_under], checked against the scan. *)

val check_tree :
  Cm_topology.Tree.t -> queries:(int * (float * float)) list -> unit
(** For every [(total_vms, ext)] query and every level: the global
    {!find_lowest} and a scoped {!find_lowest_under} at every node at
    or above the level, with that node's [Tree.available_to_root]
    clamps. *)
