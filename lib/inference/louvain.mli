(** Louvain community detection (Blondel et al. 2008, the paper's [35])
    on weighted undirected graphs: greedy local moving that maximizes
    modularity, followed by graph aggregation, repeated until no pass
    improves.

    Graphs are {!Cm_util.Csr} matrices.  The inner loop is
    allocation-free (flat neighbour-community weight accumulator +
    touched-list reset instead of a per-node Hashtbl, scratch reused
    across aggregation levels).  Neighbour weights accumulate in
    ascending-column order, and moves use an order-independent
    selection key — exact maximum gain, ties broken towards the lowest
    community id — so the labels depend on the matrix alone. *)

val modularity_csr : ?resolution:float -> Cm_util.Csr.t -> int array -> float
(** Newman modularity of a labelling of the given symmetric adjacency
    matrix (diagonal entries are self-loop weights).  [resolution]
    (default 1) is the Reichardt–Bornholdt gamma: larger values favour
    more, smaller communities.  The degree penalty is computed per
    community rather than per pair, so agreement with the textbook
    double sum is to float tolerance, not bit-exact. *)

val modularity_graph :
  ?resolution:float ->
  n:int ->
  k:float array ->
  m2:float ->
  iter_neighbours:(int -> (int -> float -> unit) -> unit) ->
  int array ->
  float
(** {!modularity_csr} over an abstract neighbour iterator (weighted
    degrees [k] and their sum [m2] supplied by the caller) — the form
    the streaming engine's mutable similarity graph can answer without
    materializing a CSR. *)

val refine_seeded :
  ?resolution:float ->
  n:int ->
  k:float array ->
  m2:float ->
  iter_neighbours:(int -> (int -> float -> unit) -> unit) ->
  seed:int array ->
  frontier:int array ->
  unit ->
  int array * int
(** One seeded local-moving pass over a dirty-vertex [frontier]:
    vertices start in their [seed] communities (labels in [[0, n)]) and
    only queued vertices are examined; an accepted move wakes the
    mover's neighbours and every member of the two touched communities
    (BFS expansion, the [Maxmin.Inc] dirty-component shape).  Move
    selection is the cold pass's exact (max gain, lowest community id)
    rule, extended with a gain-0 fresh-singleton escape so a seeded
    pass can split communities.  Every accepted move strictly increases
    modularity, so the pass terminates (a generous work budget guards
    near-tie pathologies).  Returns deterministic {e unrenumbered}
    labels in [[0, n)] plus the number of vertices that moved.
    @raise Invalid_argument on a seed label outside [[0, n)]. *)

val renumber : int array -> int array
(** Canonicalize labels to [0..k-1] in order of first appearance — the
    normal form {!cluster_csr} emits and the streaming engine applies after
    composing a {!refine_seeded} pass with a coarse re-clustering. *)

val cluster_csr : ?resolution:float -> Cm_util.Csr.t -> int array
(** Community label per node, renumbered to [0..k-1].  Deterministic
    (nodes are scanned in index order; ties are order-independent). *)

(** {1 Single passes}

    Exposed for property tests (e.g. modularity is non-decreasing
    across aggregation levels); {!cluster_csr} composes them. *)

val one_level_csr : ?resolution:float -> Cm_util.Csr.t -> int array * bool
(** One local-moving pass; returns labels renumbered to [0..k-1] and
    whether any node moved. *)

val aggregate_csr : Cm_util.Csr.t -> int array -> Cm_util.Csr.t
(** Collapse each community to one node, summing edge weights
    (intra-community weight lands on the diagonal as a self-loop). *)
