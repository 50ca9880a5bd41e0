.PHONY: all build test check bench bench-smoke chaos trace serve-smoke triage scale scale-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Every span/counter name the trace export must mention for the engine
# workload (tools/trace_check parses the JSON and looks for an event of
# each name; counter:NAME requires a "ph":"C" event of that name).
TRACE_SPANS = engine.enforce engine.incremental engine.prepare \
  engine.execute engine.job checker.prepare checker.execute smt.solve \
  concolic.run oracle.infer counter:engine.report_hits \
  counter:engine.report_misses counter:smt.memo.hits \
  counter:smt.memo.misses counter:smt.solve_calls counter:core.intern.hits \
  counter:core.intern.misses counter:core.intern.size \
  counter:smt.assume.push counter:smt.assume.pop counter:smt.propagations \
  counter:smt.learned counter:smt.trie.nodes counter:smt.trie.shared \
  counter:core.shard.contention counter:smt.memo.local_hits \
  counter:smt.learned.batched counter:smt.fastpath.interval \
  counter:smt.fastpath.bcp counter:smt.fastpath.subsumed \
  counter:smt.fastpath.saved counter:smt.memo.local_evict

# Names the serve-daemon trace must mention (tools/serve_smoke.sh
# passes these to trace_check after driving the daemon).
SERVE_TRACE_SPANS = serve.request counter:serve.queue

# Names the witness-replay triage trace must mention: the per-finding
# replay span and the tier counter series.
TRIAGE_TRACE_SPANS = triage.witness counter:triage.tier.witnessed \
  counter:triage.tier.consistent counter:triage.tier.likely_fp

# Names the scale trace must mention: the corpus-generator span and its
# case counter (the scan/engine names are covered by TRACE_SPANS).
SCALE_TRACE_SPANS = corpus.synth counter:corpus.synth.cases

# The tier-1 gate plus the engine acceptance smokes: build, full test
# suite, the serial/parallel/incremental equivalence checks (with a
# trace-export smoke), the chaos fault-injection invariants — both on
# the zookeeper slice of the E11 workload — the incremental-solver
# smoke (verdict byte-identity plus the never-loses wall-time gate,
# and the pre-solver fast-path leg asserting searches are actually
# retired — saved > 0 with >= 25% fewer full solves — on byte-identical
# verdicts),
# the witness-replay triage smoke (zero-loss, injected-FP demotion,
# determinism, triage.* trace names), and the serve-daemon smoke
# (overload shed, warm-restart byte identity, corrupted-snapshot cold
# fallback, serve.* trace names), and the synthetic-corpus scale smoke
# (generator determinism, zero-loss detection, corpus.synth trace names).
check:
	dune build && dune runtest && dune exec bench/main.exe -- --experiment engine --smoke --trace trace-smoke.json && dune exec tools/trace_check.exe -- trace-smoke.json $(TRACE_SPANS) && dune exec bench/main.exe -- --experiment chaos --smoke && dune exec bench/main.exe -- --experiment solver --smoke && dune exec bench/main.exe -- --experiment triage --smoke --trace trace-triage-smoke.json && dune exec tools/trace_check.exe -- trace-triage-smoke.json $(TRIAGE_TRACE_SPANS) && $(MAKE) bench-smoke && $(MAKE) serve-smoke && $(MAKE) scale-smoke

# Serve-daemon acceptance: drive `lisa serve` over stdin JSONL with a
# queue-depth-2 overload (one request must shed), restart warm from
# snapshots asserting byte-identical verdicts, corrupt a snapshot and
# assert the cold fallback, and validate $(SERVE_TRACE_SPANS) in the
# recorded trace.
serve-smoke:
	dune build bin/lisa_cli.exe tools/trace_check.exe && sh tools/serve_smoke.sh

# Fast hash-consing benchmark: intern throughput, the id-keyed vs
# string-keyed memo lookup comparison, and the jobs=1 vs jobs=N
# scaling columns over the sharded tables (cross-domain physical
# identity always gated; the >=4x-at-8-domains throughput gate only
# fires on non-smoke runs with >= 8 cores).  Writes BENCH_formula.json.
bench-smoke:
	dune exec bench/main.exe -- --experiment formula --smoke

# Record the full E11 engine workload through the telemetry tracer,
# validate the Chrome-trace JSON, and check every pipeline stage shows
# up.  Load trace.json in chrome://tracing or https://ui.perfetto.dev.
trace:
	dune exec bench/main.exe -- --experiment engine --trace trace.json && dune exec tools/trace_check.exe -- trace.json $(TRACE_SPANS)

# Synthetic-corpus scaling acceptance, smoke version: scales 1x/2x,
# every gate on (generator determinism, Case.validate, zero-loss planted
# detection, jobs=2/4/8 byte identity to the jobs=1 reference, fast-path
# off/on byte identity with >= 25% fewer full solves at 1x, CI
# regression gating), with the corpus.synth span/counter validated in
# the recorded trace.
scale-smoke:
	dune exec bench/main.exe -- --experiment scale --smoke --trace trace-scale-smoke.json && dune exec tools/trace_check.exe -- trace-scale-smoke.json $(SCALE_TRACE_SPANS)

# Full version: scales 1x/10x/100x (>= 160 cases at 10x), CI leg capped
# at 160 histories.  Writes BENCH_scale.json with throughput, cache-hit
# rates and peak heap per scale point.
scale:
	dune exec bench/main.exe -- --experiment scale

bench:
	dune exec bench/main.exe

# Full chaos suite: all four systems, seeds 1-3, plus the jobs=4 leg
# and the post-chaos byte-identical re-run check.
chaos:
	dune exec bench/main.exe -- --experiment chaos

# Witness-replay triage acceptance, full version: zero-loss on the
# clean corpus, >= 70% injected-FP demotion under a fully hallucinating
# oracle across three noise seeds, disabled-triage byte-identity, and
# the determinism gates, with the triage.* trace names validated.
# Writes BENCH_triage.json.
triage:
	dune exec bench/main.exe -- --experiment triage --trace trace-triage.json && dune exec tools/trace_check.exe -- trace-triage.json $(TRIAGE_TRACE_SPANS)

clean:
	dune clean
	rm -rf .lisa-cache .lisa-cache-*
