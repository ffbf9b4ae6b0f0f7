(** Flow-level bandwidth sharing: progressive-filling max-min fairness
    with per-flow demands, plus a two-phase variant that honours minimum
    guarantees first and shares the residual capacity work-conservingly —
    the fluid-level behaviour of ElasticSwitch's rate allocation over
    long-lived TCP flows (paper §5.2).

    The solver runs on dense structure-of-arrays tables: flat
    [float array] flow and link state, CSR-style flow->link adjacency,
    per-link active counters in arrays.  The max-min fixed point
    decomposes over connected components of the flow/link sharing
    graph, which is what {!Inc} exploits to re-converge only the part
    of the network a churn delta touched.

    Inside a component the fill is event-driven but performs exactly
    the float operations of round-based progressive filling (the
    retired loop is the test-only spec [Cm_oracle.Enforce.filling]):
    active flows share one grant level, the demand limit is read off a
    residual-sorted order, and only links with active flows are
    visited, through a per-component link->flow CSR.  A round costs
    O(active links + active path cells + freezes) — the cells term is
    each link's [n_active]-fold repeated subtraction of the round's
    increment, which bit-identity requires — and a component solve
    allocates O(flows + links + path cells). *)

type link = { link_id : int; capacity : float }

type flow = {
  flow_id : int;
  path : int list;  (** Link ids traversed; may be empty (unconstrained). *)
  demand : float;  (** Offered load; [infinity] for a backlogged TCP flow. *)
  guarantee : float;  (** Minimum rate protected by enforcement; 0 = none. *)
}

val max_min : links:link list -> flows:flow list -> (int * float) array
(** Plain max-min fair allocation (guarantees ignored): progressive
    filling until every flow is frozen by its demand or a bottleneck
    link.  Returns [(flow_id, rate)] pairs, in input order.

    @raise Invalid_argument if a flow references an unknown link or
    lists the same link twice in its path. *)

val with_guarantees : links:link list -> flows:flow list -> (int * float) array
(** Two-phase allocation: each flow first receives
    [min demand guarantee]; the remaining capacity is then distributed
    max-min among flows with residual demand.  Guarantees must be
    feasible (their sum fits every link); [Invalid_argument] otherwise,
    as for unknown or duplicated path links.

    A flow with an empty path is unconstrained: its rate is its demand
    when finite, else its (demand-capped) guarantee.

    This is one cold pass of the {!Inc} solver — every component solved
    from scratch — so it doubles as the bit-exact from-scratch oracle
    for the incremental path. *)

(** {1 Incremental solver}

    Persistent solver state for dynamic flow populations (ROADMAP item
    2: million-flow enforcement).  Flows arrive, depart and change
    between calls to {!Inc.solve}; each change dirties the links on the
    affected paths, and [solve] expands that dirty frontier through the
    link->flow incidence lists to whole sharing components, re-running
    progressive filling only there.  Components are solved in a
    canonical order (flows ascending by external id), so:

    - re-solving an untouched component reproduces its rates
      bit-for-bit, making the incremental fixed point {e bitwise}
      identical to a from-scratch {!with_guarantees} over the same
      flow ids;
    - independent components shard across domains ({!Cm_util.Par})
      with jobs-invariant results. *)
module Inc : sig
  type t

  type stats = {
    components : int;  (** Dirty components re-converged by last [solve]. *)
    flows_resolved : int;  (** Flows inside those components. *)
    flows_total : int;  (** Live flows in the solver. *)
    links_dirty : int;  (** Links on the dirty frontier. *)
  }

  val create : links:link list -> t
  (** A solver over a fixed link universe.
      @raise Invalid_argument on duplicate link ids. *)

  val set : t -> flow -> unit
  (** Add a flow, or update it in place when [flow_id] is already
      present (a pure demand/guarantee change keeps the slot; a path
      change re-admits the flow).  No-op when nothing changed.
      @raise Invalid_argument on unknown or duplicated path links. *)

  val remove : t -> int -> unit
  (** Remove the flow with this id; no-op when absent.  The links on
      its path join the dirty frontier. *)

  val mem : t -> int -> bool
  val n_flows : t -> int

  val solve : ?domains:int -> t -> unit
  (** Re-converge every component reachable from the dirty frontier,
      reusing the previous fixed point elsewhere.  Deterministic and
      independent of [domains].
      @raise Invalid_argument when a dirty component's guarantees are
      infeasible, naming [Maxmin.Inc.solve] and the link.  Every
      component is checked before any rate is written, so a failed
      solve leaves rates and the dirty frontier as they were: fix the
      flows and solve again. *)

  val rate : t -> int -> float
  (** Allocated rate of a flow as of the last [solve].
      @raise Invalid_argument for unknown flows. *)

  val invalidate_all : t -> unit
  (** Mark everything dirty: the next [solve] is a cold start, which
      must (and does, see the differential tests) reproduce the
      incremental fixed point exactly. *)

  val last_stats : t -> stats
  (** Telemetry of the most recent [solve] (zeros before the first). *)
end
