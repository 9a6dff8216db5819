GO ?= go

.PHONY: all build test race vet check fuzz-smoke bench edge-smoke sweep-smoke learn-smoke telemetry-smoke examples clean

all: vet check build test

# check runs the qarvcheck analyzer suite (cmd/qarvcheck) over the
# whole module: nondeterminism (no wall clock, math/rand, or
# map-iteration-ordered output in deterministic packages), ctxloop
# (slot/shard loops must thread cancellation), reseedclone (types
# holding *geom.RNG implement the full Reseed/Clone run-isolation
# contract), errstyle (sentinels wrapped with %w, no discarded
# errors), and doccheck (exported identifiers documented). The tree
# must stay finding-free; deliberate exceptions carry a reasoned
# //qarv:allow directive.
check:
	$(GO) run ./cmd/qarvcheck ./...

# fuzz-smoke runs each fuzz target briefly — enough to replay the
# checked-in corpora and catch regressions in the parsers' error paths
# without a long fuzzing campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPLYDecode -fuzztime 10s ./internal/ply
	$(GO) test -run '^$$' -fuzz FuzzReadTraceCSV -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzReadTraceJSON -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzReadMessage -fuzztime 10s ./internal/stream

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the repository's benchmark (perfbench, declared in
# BENCHMARK.json) once per workload at a one-second horizon, untraced,
# and fails unless each run's JSON result line reports "correct":true.
# It is the smoke form of the benchmark; BENCHMARK.json's run_seconds
# gives the measured form. perfbench is a nested module, so this is the
# only target that builds it.
bench:
	for w in fleet-mix content-build edge-live; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "bench: $$w not correct" >&2; exit 1;; esac; \
	done

# edge-smoke runs the socket-level edge suite: the soak/conservation,
# drain, shed, idle-timeout, and ack-failure tests under the race
# detector, then the end-to-end two-binary CLI test.
edge-smoke:
	$(GO) test -race -count=1 ./internal/stream
	$(GO) test -count=1 -run 'TestEndToEnd|TestMultiDevice' ./cmd/qarvedge ./cmd/qarvdevice

# sweep-smoke drives a tiny 2×2 grid end to end through cmd/qarvsweep
# (fleet backend, JSON report) — the sweep engine's CLI smoke test.
sweep-smoke:
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis v=0.5,2 -axis net=static,markov:0.5 \
		-backend fleet -sessions 8 -json > /dev/null

# learn-smoke runs the learning layer end to end through cmd/qarvsweep:
# a small learned-allocator × network grid must produce byte-identical
# JSON at -workers 1 and -workers 4, and a learned-policy axis must run
# through the fleet-shaped grid.
learn-smoke:
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis alloc=equal,bandit:4,gradient:0.2 -axis net=static,markov:0.8:64 \
		-workers 1 -json > learn_smoke_w1.json
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis alloc=equal,bandit:4,gradient:0.2 -axis net=static,markov:0.8:64 \
		-workers 4 -json > learn_smoke_w4.json
	cmp learn_smoke_w1.json learn_smoke_w4.json
	rm -f learn_smoke_w1.json learn_smoke_w4.json
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis policy=proposed,predictive-delayed:6 -axis net=static \
		-json > /dev/null

# telemetry-smoke runs the observability layer end to end: the pin
# tests proving metric snapshots are byte-identical per seed at any
# shard/worker count and that telemetry never changes report bytes,
# the CLI sink tests, then a real qarvfleet run that must emit a
# non-empty snapshot and trace_event file.
telemetry-smoke:
	$(GO) test -run 'Telemetry' . ./cmd/qarvfleet
	$(GO) test ./internal/obs ./cmd/internal/telemetry
	$(GO) run ./cmd/qarvfleet -samples 30000 -n 64 -slots 200 -json \
		-metrics telemetry_smoke_metrics.json -trace telemetry_smoke_trace.json > /dev/null
	test -s telemetry_smoke_metrics.json && test -s telemetry_smoke_trace.json
	rm -f telemetry_smoke_metrics.json telemetry_smoke_trace.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vsweep
	$(GO) run ./examples/multidevice
	$(GO) run ./examples/offload
	$(GO) run ./examples/streaming
	$(GO) run ./examples/allocators
	$(GO) run ./examples/fleet
	$(GO) run ./examples/networks
	$(GO) run ./examples/sweep
	$(GO) run ./examples/content
	$(GO) run ./examples/learn

clean:
	$(GO) clean ./...
	rm -rf results data
