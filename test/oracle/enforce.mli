(** Enforcement oracle (paper §5.2): the pre-optimisation control loop,
    and a from-scratch recomputation of every epoch's steady state. *)

module Reference : sig
  (** The pre-optimisation control loop: per-period lists and hash
      tables, GP recomputed every period.  Same per-period semantics as
      [Runtime.step] on a fixed flow set (it does {e not} implement
      cross-epoch limiter decay). *)

  type state

  val create :
    ?config:Cm_enforce.Runtime.config ->
    tag:Cm_tag.Tag.t ->
    enforcement:Cm_enforce.Elastic.enforcement ->
    links:Cm_enforce.Maxmin.link list ->
    unit ->
    state

  val step :
    state ->
    flows:Cm_enforce.Runtime.flow_spec list ->
    (Cm_enforce.Elastic.active_pair * float) list
end

val steady :
  ?config:Cm_enforce.Runtime.config ->
  tag:Cm_tag.Tag.t ->
  enforcement:Cm_enforce.Elastic.enforcement ->
  links:Cm_enforce.Maxmin.link list ->
  Cm_enforce.Runtime.flow_spec list ->
  (Cm_enforce.Elastic.active_pair * float) list
(** One epoch's steady state from scratch: GP guarantees from
    [Elastic.pair_guarantees], capacities [capacity * (1 - headroom)],
    then [Maxmin.with_guarantees] with each flow's id its index in the
    epoch. *)

val check_report :
  ?config:Cm_enforce.Runtime.config ->
  tag:Cm_tag.Tag.t ->
  enforcement:Cm_enforce.Elastic.enforcement ->
  links:Cm_enforce.Maxmin.link list ->
  epochs:Cm_enforce.Runtime.flow_spec list list ->
  Cm_enforce.Runtime.report ->
  unit
(** [check_report ... ~epochs report] raises {!Check.Mismatch} unless
    [report] (from [Runtime.run_dynamic] over [epochs] on a runtime
    built from the same arguments) holds one epoch per input epoch and
    every [epoch_report.steady] — and [report.rates] — is bitwise
    {!steady}. *)

val filling :
  links:Cm_enforce.Maxmin.link list ->
  flows:Cm_enforce.Maxmin.flow list ->
  (int * float) array
(** The retired progressive-filling loop of [Maxmin.Inc], kept verbatim
    as the specification of {!Cm_enforce.Maxmin.with_guarantees}: per
    sharing component, over its flows in ascending flow-id order, phase
    1 hands out [min demand guarantee] and phase 2 raises every unfrozen
    flow together, rescanning every flow and link each round.  Returns
    [(flow_id, rate)] in input order; [with_guarantees] must equal it
    bit for bit.

    @raise Invalid_argument on unknown links, duplicate links in a path,
    duplicate flow ids, or infeasible guarantees. *)
