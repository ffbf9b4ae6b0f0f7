(** The dense [float array array] inference path: each stage of TAG
    inference (paper §3) written as its textbook formula, the
    specification the {!Cm_util.Csr} pipeline must reproduce bit for
    bit. *)

val to_csr : float array array -> Cm_util.Csr.t
(** Keeps the strictly positive cells of a square dense matrix.
    @raise Invalid_argument if the matrix is not square. *)

val of_csr : Cm_util.Csr.t -> float array array
(** Dense reconstruction; absent cells are [0.]. *)

val mean_matrix : Cm_inference.Traffic_matrix.t -> float array array
(** Dense view of [Traffic_matrix.mean_csr]. *)

val feature_vectors : float array array -> float array array
(** [feature_vectors m].(i) is row i of [m] concatenated with column i. *)

val cosine : float array -> float array -> float
(** Cosine similarity in [0, 1] for non-negative vectors; 0 when either
    vector is all-zero. *)

val angular_similarity : float array -> float array -> float
(** [1 - 2*acos(cosine)/pi]: 1 for parallel vectors, 0 for orthogonal. *)

val projection_graph : float array array -> float array array
(** Symmetric VM-by-VM weight matrix of angular similarities (zero
    diagonal, negatives clamped to 0), from a traffic matrix. *)

val modularity : ?resolution:float -> float array array -> int array -> float
(** Newman modularity of a labelling as the double sum over node pairs
    (diagonal entries are self-loop weights; [resolution] is the
    Reichardt–Bornholdt gamma, default 1). *)

val aggregate : float array array -> int array -> float array array
(** Collapse each community to one node, summing edge weights
    (intra-community weight lands on the diagonal as a self-loop). *)

val cluster : ?resolution:float -> float array array -> int array
(** Louvain over a dense graph: [Louvain.one_level_csr] passes composed
    with the dense {!aggregate}, renumbered to [0..k-1] — so comparing
    it with [Louvain.cluster_csr] checks the CSR aggregation. *)
