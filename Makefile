# Convenience targets; everything is plain dune underneath.

.PHONY: all build test ci ci-smokes bench bench-fast bench-placement bench-placement-scale bench-enforce-scale bench-inference-stream bench-failures examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Mirror of .github/workflows/ci.yml: install dependencies (when opam is
# available), build everything, run the test suite, then the bench
# smokes.
ci:
	@if command -v opam >/dev/null 2>&1; then \
	  opam install . --deps-only --with-test --yes; \
	else \
	  echo "opam not found; assuming dependencies are already installed"; \
	fi
	dune build @all
	dune runtest
	$(MAKE) ci-smokes

# The bench smokes, defined once: `make ci` and the Actions workflow
# both run this target, so the two lists cannot drift.  Each line runs
# one section through scripts/ci-bench-smoke.sh, which writes
# bench_<section>.json + bench_<section>_trace.json and gates them with
# scripts/gates/<section>.py and scripts/gates/obs.py.  Gates assert
# schema and invariants, never wall-clock.
#   fig8              full telemetry path (--metrics-out, --trace-out)
#   placement         hot-path microbenchmark (BENCH_pr3.json)
#   placement-scale   index vs pod-sharded batching, 2k..131k servers:
#                     jobs-invariance + throughput-collapse guard
#                     (BENCH_pr8.json)
#   enforce-scale     incremental max-min vs the from-scratch oracle:
#                     bitwise equality, jobs-invariance (BENCH_pr9.json)
#   inference-stream  streaming inference vs per-epoch re-run: oracle
#                     parity, jobs-invariance (BENCH_pr10.json)
#   sim-failures      failure campaign: recovery counters and
#                     survivability invariants
#   enforce-failures  the same schedules through the enforcement loop
#   examples          the nine examples, run to completion (the only
#                     callers of End_to_end.evaluate's full_system
#                     path and of the CLI-style Runner callers)
ci-smokes:
	scripts/ci-bench-smoke.sh fig8 --fast --arrivals 200
	scripts/ci-bench-smoke.sh placement --fast --jobs 1
	scripts/ci-bench-smoke.sh placement-scale --fast --arrivals 200 --jobs 2
	scripts/ci-bench-smoke.sh enforce-scale --fast --jobs 2
	scripts/ci-bench-smoke.sh inference-stream --fast --jobs 2
	scripts/ci-bench-smoke.sh sim-failures --fast --arrivals 400 --jobs 1
	scripts/ci-bench-smoke.sh enforce-failures --jobs 1
	$(MAKE) examples

# Full paper-scale reproduction of every table and figure.  Sweeps fan
# out over all cores; JOBS=N pins the domain count (JOBS=1 = sequential).
JOBS ?=
JOBS_FLAG = $(if $(JOBS),--jobs $(JOBS),)

bench:
	dune exec bench/main.exe -- $(JOBS_FLAG)

# Same harness at 2000 arrivals per simulated point.
bench-fast:
	dune exec bench/main.exe -- --fast $(JOBS_FLAG)

# Placement hot-path microbenchmark only; writes a metrics document to
# compare against the committed BENCH_pr3.json baseline.
bench-placement:
	dune exec bench/main.exe -- $(JOBS_FLAG) placement --metrics-out BENCH_placement.json

# Region-scale placement sweep (2,048 -> 131,072 servers): availability
# index vs pod-sharded epoch batching, with jobs-invariance enforced
# in-process; writes a metrics document to compare against the
# committed BENCH_pr8.json baseline.
bench-placement-scale:
	dune exec bench/main.exe -- $(JOBS_FLAG) placement-scale --metrics-out BENCH_placement_scale.json

# Million-flow steady-state enforcement sweep (10k -> 1M flows under
# churn): persistent incremental max-min vs the from-scratch oracle,
# with bitwise oracle equality and jobs-invariance enforced in-process;
# writes a metrics document to compare against the committed
# BENCH_pr9.json baseline.
bench-enforce-scale:
	dune exec bench/main.exe -- $(JOBS_FLAG) enforce-scale --metrics-out BENCH_enforce_scale.json

# Streaming TAG inference only (incremental engine vs from-scratch per
# epoch, 1,024 -> 16,384 VMs under seeded drift); writes a metrics
# document to compare against the committed BENCH_pr10.json baseline.
bench-inference-stream:
	dune exec bench/main.exe -- $(JOBS_FLAG) inference-stream --metrics-out BENCH_inference_stream.json

# Failure & survivability campaign only (placement-side injection +
# recovery and the enforcement-side replay); writes a metrics document
# to compare against the committed BENCH_pr6.json baseline.
bench-failures:
	dune exec bench/main.exe -- $(JOBS_FLAG) sim-failures enforce-failures --metrics-out BENCH_failures.json

# The nine examples, each run to completion (a non-zero exit fails the
# target).  Through `opam exec` when opam is there, as the smokes do.
EXAMPLES = quickstart three_tier_web storm_pipeline ha_placement \
  inference_demo enforcement_demo autoscale_demo disaggregated_dc full_system
DUNE = $(if $(shell command -v opam 2>/dev/null),opam exec -- dune,dune)

examples:
	@for e in $(EXAMPLES); do \
	  echo "== examples/$$e.exe"; \
	  $(DUNE) exec examples/$$e.exe || exit 1; \
	done

clean:
	dune clean
