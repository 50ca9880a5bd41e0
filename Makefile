.PHONY: all build test check bench chaos trace serve-smoke clean

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
  counter:smt.propagations counter:core.shard.contention \
  counter:smt.fastpath.interval counter:smt.fastpath.bcp \
  counter:smt.fastpath.saved counter:corpus.synth.cases \
  counter:oracle.test_index.builds

# Names the serve-daemon trace must mention (tools/serve_smoke.sh
# passes these to trace_check after driving the daemon).
SERVE_TRACE_SPANS = serve.request counter:serve.queue

# Names the witness-replay triage trace must mention: the per-finding
# replay span and the tier counter series.
TRIAGE_TRACE_SPANS = triage.witness counter:triage.tier.witnessed \
  counter:triage.tier.consistent counter:triage.tier.likely_fp

# The tier-1 gate plus the acceptance smokes: build, full test suite
# (which holds the engine, solver, triage and synth equivalence gates
# and the benchmark's --smoke rule), Chrome-trace exports of the engine
# scan and the triaged scan validated against $(TRACE_SPANS) and
# $(TRIAGE_TRACE_SPANS), the chaos fault-injection invariants on the
# zookeeper slice of the E11 workload, and the serve-daemon smoke
# (overload shed, warm-restart byte identity, corrupted-snapshot cold
# fallback, serve.* trace names).
check:
	dune build && dune runtest && dune exec bin/lisa_cli.exe -- engine --trace trace-smoke.json && dune exec tools/trace_check.exe -- trace-smoke.json $(TRACE_SPANS) && dune exec bin/lisa_cli.exe -- engine --triage --trace trace-triage-smoke.json && dune exec tools/trace_check.exe -- trace-triage-smoke.json $(TRIAGE_TRACE_SPANS) && dune exec bench/main.exe -- --experiment chaos --smoke && $(MAKE) serve-smoke

# Serve-daemon acceptance: drive `lisa serve` over stdin JSONL with a
# queue-depth-2 overload (one request must shed), restart warm from
# snapshots asserting byte-identical verdicts, corrupt a snapshot and
# assert the cold fallback, and validate $(SERVE_TRACE_SPANS) in the
# recorded trace.
serve-smoke:
	dune build bin/lisa_cli.exe tools/trace_check.exe && sh tools/serve_smoke.sh

# Record the E11 engine scan through the telemetry tracer, validate the
# Chrome-trace JSON, and check every pipeline stage shows up.  Load
# trace.json in chrome://tracing or https://ui.perfetto.dev.
trace:
	dune exec bin/lisa_cli.exe -- engine --trace trace.json && dune exec tools/trace_check.exe -- trace.json $(TRACE_SPANS)

# Every paper-artifact experiment plus the full chaos suite.
# Performance is measured by benchmark/run.sh (see BENCHMARK.json).
bench:
	dune exec bench/main.exe

# Full chaos suite: all four systems, seeds 1-3, plus the jobs=4 leg
# and the post-chaos byte-identical re-run check.
chaos:
	dune exec bench/main.exe -- --experiment chaos

clean:
	dune clean
	rm -rf .lisa-cache .lisa-cache-*
