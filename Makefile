# Phoenix reproduction build/test entry points.
#
# `make ci` is the tier-1 gate: everything must pass before a change
# lands. It runs static analysis, a full build, the full test suite, and
# the race detector over the concurrent packages — the wire transport
# (real sockets, real goroutines), the phoenix-node bootstrap, and one
# simulated-cluster smoke test.

GO ?= go

.PHONY: ci vet build test race fuzz alloc admin-smoke chaos-smoke detect-soak overload-smoke bench loc

ci: vet build test race fuzz alloc admin-smoke chaos-smoke detect-soak overload-smoke
	@echo "ci: all gates passed"

# Static analysis plus the format gate: any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race gate: wire/noded run real reader goroutines and wall-clock
# timers, so they race-test end to end (including the multi-node loopback
# integration test and the resilient-RPC chaos suite); internal/rpc joins
# because its breaker set is the one lock-guarded structure shared between
# the wire's reader goroutines and every daemon loop; internal/shard
# because its immutable-map contract is what lets the data plane hand
# shard maps across goroutines; internal/heartbeat because the suspicion
# lifecycle (accrual windows, refutation, indirect probes) is driven from
# both the daemon loop and timer callbacks; internal/simhost because its
# handles suppress timer callbacks of dead processes, the contract the
# wire runtime shares; internal/bulletin because its replies and delta
# batches decode on the wire's reader goroutines; internal/codec and
# internal/pws because the payload plans walk values by unsafe pointer
# arithmetic, which the race build's checkptr instrumentation checks on
# every registered payload and on the scheduler's checkpointed state; the
# cluster smoke test guards the simulator path.
race:
	$(GO) test -race ./internal/rpc/ ./internal/shard/ ./internal/gossip/ ./internal/heartbeat/ ./internal/simhost/ ./internal/bulletin/ ./internal/codec/ ./internal/pws/ ./internal/wire/... ./internal/noded/...
	$(GO) test -race -run 'TestBootAllDaemonsUp|TestGSDKillTakeoverAndRejoin' ./internal/cluster/

# The fuzz gate: a short engine run per fuzz target, starting from the
# checked-in seed corpora (internal/wire/testdata/fuzz/,
# internal/codec/testdata/fuzz/ and internal/gossip/testdata/fuzz/). The
# engine accepts one -fuzz target per invocation, hence one run each: the
# wire frame parser, the address-book parser, the codec envelope decoder,
# every registered payload type's plan, the gossip payloads, and the
# chaos scenario parser (seeded from its tests' scripts).
fuzz:
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz '^FuzzParseBook$$' -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s -run '^$$' ./internal/codec/
	$(GO) test -fuzz '^FuzzPayloadDecode$$' -fuzztime 10s -run '^$$' ./internal/codec/
	$(GO) test -fuzz '^FuzzGossipWire$$' -fuzztime 10s -run '^$$' ./internal/gossip/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 10s -run '^$$' ./internal/chaos/

# The allocation gate: the codec's hot paths (AppendMessage into a warm
# buffer, DecodePayload into a reused value, Size of any payload, a 1 MiB
# checkpoint replica included) and the simulated network's per-message
# accounting must stay at zero allocations — the regression fence behind the benchmark's
# codec.allocs_per_roundtrip and sim.allocs_per_step. Runs without the
# race detector: the race runtime adds its own allocations.
alloc:
	$(GO) test -run 'ZeroAllocs' -count=1 ./internal/codec/ ./internal/simnet/

# The repository benchmark (BENCHMARK.json): four workloads with bounds,
# calibration and a checked-in baseline; see bench/README.md.
bench:
	$(GO) run ./bench -workload all

# Non-test Go lines outside bench/: the one number "less code" PRs quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# The operations-plane gate: build the shipped binaries, boot one real
# node with its admin server enabled, scrape /healthz + /metrics through
# phoenix-admin, and grep for known metric names.
admin-smoke:
	sh ./scripts/admin_smoke.sh

# The robustness gate: boot a real four-node cluster from the shipped
# binaries with durable state dirs and a chaos scenario armed, SIGKILL the
# leader's node, and require the crash-restarted node to rejoin (rejoining
# state surfaced, back to ready, exactly one leader).
chaos-smoke:
	sh ./scripts/chaos_smoke.sh

# The detection gate: soak a real four-node cluster under 20% plane-0
# loss plus a ramped plane-1 delay (SOAK_SECS, default 60) and require
# zero false node-fail verdicts and zero GSD takeovers, then SIGKILL a
# node and require the lifecycle to still diagnose the real failure.
detect-soak:
	sh ./scripts/detect_soak.sh

# The overload gate: boot a real four-node cluster hosting the PWS
# scheduler, run a steady service tenant plus a batch flood at a multiple
# of capacity, and require the shed ladder to engage (shed_total and
# admission rejects > 0), the service p99 to stay within SLO with zero
# failures, no crashes or quarantined jobs, and the ladder to step back
# to rung 0 once the flood stops.
overload-smoke:
	sh ./scripts/overload_smoke.sh
