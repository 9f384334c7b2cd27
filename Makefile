# Development workflow for the ccnuma simulator. `make check` is the
# pre-PR gate: formatting, vet, and the full test suite under the race
# detector at the small problem sizes the tests use.

GO ?= go

.PHONY: all build check fmt vet test race microbench tables lint verify model chaos scenario attribution serve-smoke torture-smoke pdes-smoke perfbench-selftest clean

all: build

build:
	$(GO) build ./...

# check is the pre-PR gate: gofmt must report nothing, vet and cclint must
# be clean (cclint also rejects //nolint and //cclint:ignore directives
# that carry no reason, and fails when the committed protocol model is
# stale), every test must pass with the race detector on, the replay
# checker must close the 2-node state space with zero violations, the
# extracted-model checker must close its abstract state space, the chaos
# campaign must recover from every fault schedule, the smoke gates below
# must hold, and perfbench must build and pass its self-test.
# Host-time performance is measured by perfbench (perfbench/README.md),
# not gated here.
check: fmt vet lint race verify model chaos scenario attribution serve-smoke torture-smoke pdes-smoke perfbench-selftest

# lint runs the repo's own analyzer suite (internal/lint): exhaustive
# switches over protocol/cache/directory enums, no wall-clock or global
# rand in simulated-time packages, no no-op scheduled callbacks, and
# reasons on every suppression.
lint:
	$(GO) run ./cmd/cclint ./...

# verify model-checks the real protocol stack on the smallest interesting
# machine. Must reach a fixpoint with zero invariant violations.
verify:
	$(GO) run ./cmd/ccverify -nodes 2 -procs 1 -q

# model is the extracted-model gate: the committed ccnuma-model artifact
# must match a fresh extraction of internal/core + internal/protocol, the
# abstract 4-node machine (with finite-buffer NACK/backoff edges) must
# reach a violation-free fixpoint, and a concrete replay must validate
# its transitions against the extracted rule table.
model:
	$(GO) run ./cmd/ccmodel -stale
	$(GO) run ./cmd/ccmodel -check -nodes 4 -robust
	$(GO) run ./cmd/ccmodel -conform

# chaos smoke-tests the recovery machinery: one kernel under 25 seeded
# fault schedules plus the single-fault recovery sweep. Every run must
# complete, verify, and drain with zero invariant violations.
chaos:
	$(GO) run ./cmd/ccchaos -app fft -schedules 25 -q
	$(GO) run ./cmd/ccverify -nodes 2 -procs 1 -sweep-faults -q

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scenario smoke-tests the declarative layer end to end: run a committed
# spec, replay the artifact it wrote, and require the replayed artifact
# to be byte-identical to the original.
scenario:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/ccsim -spec examples/scenarios/base.json -json "$$tmp/run.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -replay "$$tmp/run.json" -json "$$tmp/replay.json" >/dev/null && \
	cmp "$$tmp/run.json" "$$tmp/replay.json" && echo "scenario: replay byte-identical"; \
	status=$$?; rm -rf "$$tmp"; exit $$status

# attribution smoke-tests the span-tracing layer: a small kernel with
# per-transaction attribution on must complete (machine.Run fails the run
# if the stage spans do not partition the end-to-end latencies exactly)
# and its artifact must carry the attribution section of the
# ccnuma-run/v1 schema. The same kernel traced through a sink with
# attribution on must then stream the first transaction's seven span
# events, ending in its 36-cycle finish.
attribution:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -json "$$tmp/attr.json" >/dev/null && \
	grep -q '"attribution"' "$$tmp/attr.json" && \
	$(GO) run ./cmd/cctrace -app fft -arch HWC -nodes 4 -ppn 2 -size test -txn 0x100000001 2>/dev/null >"$$tmp/spans.txt" && \
	test "$$(grep -c ' span txn=0x100000001 ' "$$tmp/spans.txt")" = 7 && \
	tail -n 1 "$$tmp/spans.txt" | grep -q 'span txn=0x100000001 done line=0x1000 total=36 cycles$$' && \
	echo "attribution: conservation + schema + span stream OK"; \
	status=$$?; rm -rf "$$tmp"; exit $$status

# serve-smoke exercises the experiment service end to end through real
# binaries: start ccserved, submit a sweep with ccsubmit, resubmit it
# (must be all store hits), fetch one artifact, and drain gracefully.
serve-smoke:
	@tmp="$$(mktemp -d)"; status=1; \
	$(GO) build -o "$$tmp/ccserved" ./cmd/ccserved && \
	$(GO) build -o "$$tmp/ccsubmit" ./cmd/ccsubmit && \
	"$$tmp/ccserved" -addr 127.0.0.1:18347 -store "$$tmp/store" -compute-log "$$tmp/compute.log" 2>"$$tmp/served.log" & pid=$$!; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18347/readyz >/dev/null 2>&1; then break; fi; sleep 0.1; done; \
	"$$tmp/ccsubmit" -addr 127.0.0.1:18347 -scenario examples/scenarios/2hwc-vs-2ppc.json >"$$tmp/first.out" && \
	"$$tmp/ccsubmit" -addr 127.0.0.1:18347 -scenario examples/scenarios/2hwc-vs-2ppc.json >"$$tmp/second.out" && \
	! grep -q computed "$$tmp/second.out" && grep -q hit "$$tmp/second.out" && \
	fp="$$(awk 'NR==2{print $$1}' "$$tmp/first.out")" && \
	"$$tmp/ccsubmit" -addr 127.0.0.1:18347 -fetch "$$fp" | grep -q '"schema": "ccnuma-run/v1"' && \
	curl -fsS http://127.0.0.1:18347/statusz | grep -q '"quarantined": 0' && \
	status=0 && echo "serve-smoke: memoized resubmit + artifact fetch OK"; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$status -ne 0 ]; then echo "serve-smoke FAILED"; cat "$$tmp/served.log"; fi; \
	rm -rf "$$tmp"; exit $$status

# pdes-smoke is the sharded-scheduler gate: the same scenario run serial
# (-shards 1) and sharded must write byte-identical artifacts — two kernels
# (one with attribution + robustness on, one two-engine) plus one seeded
# chaos schedule whose full progress output is compared byte for byte.
pdes-smoke:
	@tmp="$$(mktemp -d)"; status=1; \
	$(GO) run ./cmd/ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -robust -json "$$tmp/fft-1.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -robust -shards 4 -json "$$tmp/fft-4.json" >/dev/null && \
	cmp "$$tmp/fft-1.json" "$$tmp/fft-4.json" && \
	$(GO) run ./cmd/ccsim -app radix -arch 2PPC -nodes 4 -ppn 2 -size test -json "$$tmp/radix-1.json" >/dev/null && \
	$(GO) run ./cmd/ccsim -app radix -arch 2PPC -nodes 4 -ppn 2 -size test -shards 2 -json "$$tmp/radix-2.json" >/dev/null && \
	cmp "$$tmp/radix-1.json" "$$tmp/radix-2.json" && \
	$(GO) run ./cmd/ccchaos -app fft -schedules 1 -first 3 >"$$tmp/chaos-1.out" && \
	$(GO) run ./cmd/ccchaos -app fft -schedules 1 -first 3 -shards 4 >"$$tmp/chaos-4.out" && \
	cmp "$$tmp/chaos-1.out" "$$tmp/chaos-4.out" && \
	status=0 && echo "pdes-smoke: sharded runs byte-identical to serial"; \
	rm -rf "$$tmp"; exit $$status

# torture-smoke is the crash-safety gate: a real ccserved process is
# SIGKILLed mid-sweep and restarted for at least 25 seeded cycles; the
# store must never corrupt, never recompute a completed cell, and every
# surviving artifact must be byte-identical to an uninterrupted run.
torture-smoke:
	$(GO) test -count=1 -run TestKillTorture -v ./internal/serve/

# perfbench-selftest builds the benchmark, which is a separate
# module that `go build ./...` never compiles, and runs its self-test, so a
# renamed API it uses fails here rather than in the benchmark.
perfbench-selftest:
	cd perfbench && $(GO) test -race ./...

# microbench runs the go-test benchmark suites (paper artifacts at SizeTest,
# the engine hot-loop benchmarks in internal/sim, the program handoff on
# the L1-hit path in internal/cpu, and whole PPC kernel runs with their
# allocations per event in internal/machine).
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/sim ./internal/cpu ./internal/machine

# Regenerate every paper table/figure at smoke sizes.
tables:
	$(GO) run ./cmd/cctables -size test

clean:
	$(GO) clean
	rm -f ccchaos cclint ccmodel ccserved ccsim ccsubmit ccsweep cctables cctrace ccverify
