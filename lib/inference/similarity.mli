(** VM similarity from traffic matrices (paper §3, "Producing TAG
    models"): each VM's feature vector is the concatenation of its row
    (outgoing) and column (incoming) of the bandwidth-weighted traffic
    matrix; similarity is derived from the angular distance between
    vectors; the projection graph carries one weighted edge per similar
    VM pair. *)

val projection_csr : Cm_util.Csr.t -> Cm_util.Csr.t
(** Symmetric VM-by-VM graph (zero diagonal) whose edge weight is the
    angular similarity [max 0 (1 - 2*acos(c)/pi)] of the two VMs'
    feature vectors, where [c] is their cosine clamped to [[0, 1]] (0
    when either vector is all-zero).  A VM's feature vector is its row
    of the traffic matrix followed by its column.  Dot products run
    over each VM's sparse feature support via an inverted index, one
    multiply-add per support coincidence; every sum visits the nonzero
    terms in ascending feature-dimension order, so the weights are
    bitwise those of the dense formula. *)
