(** Streaming-inference oracle (paper §3): every tick of a
    [Cm_inference.Stream] against the batch pipeline re-run from
    scratch over the same window. *)

val ami_parity : float
(** Minimum AMI between the stream's labels and the from-scratch labels
    on ticks where the seeded refinement may settle elsewhere (0.8). *)

type observation = {
  epochs : Cm_util.Csr.t array;  (** The window, oldest first. *)
  mean : Cm_util.Csr.t;
  projection : Cm_util.Csr.t;
  labels : int array;
  sizes : int array;
  peaks : float array;
  exact : bool;
      (** Full or fallback tick: the labels must equal the cold
          labelling exactly. *)
}
(** What a stream reports after one tick, read through its public
    accessors. *)

val observe : Cm_inference.Stream.t -> Cm_inference.Stream.stats -> observation
(** The stream's state after the push that returned the given stats. *)

val check : ?resolution:float -> observation -> float
(** Recompute the tick from [epochs]: [Traffic_matrix.mean_csr],
    [Similarity.projection_csr], [Louvain.cluster_csr ~resolution]
    (default 1, the [Stream.default_config] value) and
    [Infer.component_peaks] under the observed labels.  Mean,
    projection, sizes and peaks must be bitwise equal; labels equal on
    [exact] ticks and within {!ami_parity} AMI otherwise.  Returns the
    AMI against the cold labels (1 on exact ticks).
    @raise Check.Mismatch on the first divergence. *)

val check_tick :
  ?resolution:float ->
  Cm_inference.Stream.t ->
  Cm_inference.Stream.stats ->
  float
(** [check_tick s stats] is [check (observe s stats)]; call it right
    after the [Stream.push] that returned [stats]. *)
