"""Gate for the million-flow enforcement sweep (bench enforce-scale):
the incremental max-min solver matched the from-scratch oracle bitwise
on every churn epoch, the solve was jobs-invariant, and the incremental
path actually beat a cold re-solve -- with the advantage not shrinking
as the population grows.  Only identities and relative factors are
asserted, plus an allocation count per re-converged flow -- never
absolute wall-clock, which CI machines cannot hold steady.  Absolute
numbers are bisected offline against the committed BENCH_pr9.json
baseline."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common


def check(doc):
    g = doc["gauges"]

    # Hard invariants the bench itself also enforces (it fails the run
    # on violation); re-checked here so a silently truncated document
    # cannot pass.
    assert g.get("bench.enforce_scale.oracle_match") == 1.0, (
        "incremental solver diverged from the with_guarantees oracle"
    )
    assert g.get("bench.enforce_scale.jobs_invariant") == 1.0, (
        "incremental solve depends on the domain count"
    )

    flows_max = int(g.get("bench.enforce_scale.flows_max", 0))
    assert flows_max > 0, "sweep recorded no sizes"

    sizes = sorted(
        int(k.rsplit(".", 1)[1])
        for k in g
        if k.startswith("bench.enforce_scale.speedup.")
    )
    assert sizes and sizes[-1] == flows_max, (sizes, flows_max)

    for size in sizes:
        for fmt in ("cold_us", "inc_us", "speedup"):
            k = f"bench.enforce_scale.{fmt}.{size}"
            assert k in g and g[k] > 0, k
        # The incremental path re-converged a strict subset of the
        # population (small churn deltas touch few components).
        frac = g[f"bench.enforce_scale.resolved_frac.{size}"]
        assert 0.0 < frac < 1.0, (size, frac)
        # Incremental must beat the cold re-solve at every size.  Both
        # numbers are measured in the same process seconds apart, so
        # the ratio is machine-speed independent.  (The full run shows
        # >= 5x at >= 100k flows; smokes run tiny populations, so the
        # gate asserts only the ordering.)
        assert g[f"bench.enforce_scale.speedup.{size}"] > 1.0, size

    # The advantage must not collapse with scale: the speedup at the
    # largest population stays within a generous noise factor of the
    # best size.  An incremental path degrading towards a cold re-solve
    # at scale reads ~1x there and fails this long before the factor
    # matters; timing jitter on loaded CI hosts does not.
    best = max(g[f"bench.enforce_scale.speedup.{s}"] for s in sizes)
    assert g[f"bench.enforce_scale.speedup.{flows_max}"] >= 0.3 * best, (
        flows_max,
        g[f"bench.enforce_scale.speedup.{flows_max}"],
        best,
    )

    # Allocation of a 1-domain churn solve, per re-converged flow: a
    # count, not a time.  The event-driven fill allocates only O(flows
    # + links + path cells) per component (~26 words here); a fill that
    # allocates per (round, active flow) reads ~214.
    words = g.get("bench.enforce_scale.minor_words_per_resolved_flow")
    assert words is not None and 0.0 < words <= 64.0, words

    assert "section.enforce_scale" in doc["spans"]


common.main(check)
