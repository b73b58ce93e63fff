GO ?= go

.PHONY: all build test check fmt vet race bench profile-smoke inspect-smoke mtrace-smoke fuzz-smoke fabricobs-smoke figures figures-golden validate validate-smoke validate-sensitivity

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: formatting, static analysis, and the full test
# suite under the race detector.
check: fmt vet race

# bench runs the simulator-speed ledger (bench/README.md): one set of the
# six workloads, end-to-end metrics and the per-layer CPU split. Pass
# ledger flags through ARGS, e.g. make bench ARGS='-workload iperf -trace 0'.
bench:
	bash bench/run.sh $(ARGS)

# profile-smoke is the CI profile-golden check: run netsim with profiling
# enabled and validate the emitted profile.proto with the in-repo parser.
profile-smoke:
	$(GO) run ./cmd/netsim -dur 3ms -warmup 3ms -profile-out /tmp/hostsim-smoke.pb.gz \
		-folded-out /tmp/hostsim-smoke.folded -latency-breakdown > /dev/null
	$(GO) run ./cmd/profcheck /tmp/hostsim-smoke.pb.gz

# inspect-smoke is the CI wire-inspector check: run netsim with all three
# exporters and validate the emitted pcapng with the in-repo reader.
inspect-smoke:
	$(GO) run ./cmd/netsim -dur 3ms -warmup 3ms -loss 0.01 \
		-pcap-out /tmp/hostsim-smoke.pcapng -probe-out /tmp/hostsim-smoke.probe.jsonl \
		-ss-out /tmp/hostsim-smoke.ss.csv > /dev/null
	$(GO) run ./cmd/inspectcheck /tmp/hostsim-smoke.pcapng
	test -s /tmp/hostsim-smoke.probe.jsonl && test -s /tmp/hostsim-smoke.ss.csv

# mtrace-smoke is the CI message-tracing check: run netsim on the golden
# lossy RPC scenario with both mtrace exporters and validate the span
# telescoping and the report shape with the in-repo checker.
mtrace-smoke:
	$(GO) run ./cmd/netsim -workload rpc -rpcclients 8 -rpcsize 65536 \
		-loss 0.01 -warmup 2ms -dur 20ms -seed 7 \
		-mtrace-out /tmp/hostsim-smoke.spans.json \
		-tail-report /tmp/hostsim-smoke.tail.txt > /dev/null
	$(GO) run ./cmd/tailcheck /tmp/hostsim-smoke.spans.json /tmp/hostsim-smoke.tail.txt

# fuzz-smoke is the CI fuzz gate: a short coverage-guided walk of the
# configuration space with the conservation-law checker as the oracle.
# Run `go test -fuzz=FuzzConfig .` (no -fuzztime) to hunt open-ended.
fuzz-smoke:
	$(GO) test -fuzz=FuzzConfig -fuzztime=30s -run FuzzConfig .

# fabricobs-smoke is the CI fabric-observability gate: the observatory's
# unit tests and the root transparency/reconciliation properties under
# the race detector, then an end-to-end netsim run emitting all three
# artifacts, re-validated with the in-repo fabcheck checker.
fabricobs-smoke:
	$(GO) test -race -count=1 ./internal/fabricobs
	$(GO) test -race -count=1 -run 'TestFabricObsTransparency|TestFabricObsLedgerReconciliation|TestFabricObsRejects' .
	$(GO) run ./cmd/netsim -fabric-hosts 8 -fabric-buffer-kb 256 -pattern incast \
		-dur 10ms -warmup 5ms -check -burst-kb 64 \
		-fabric-report /tmp/hostsim-smoke.fab.csv \
		-fabric-ts-out /tmp/hostsim-smoke.fabts.csv \
		-fabric-trace-out /tmp/hostsim-smoke.fab.json > /dev/null
	$(GO) run ./cmd/fabcheck /tmp/hostsim-smoke.fab.csv /tmp/hostsim-smoke.fabts.csv

figures:
	$(GO) run ./cmd/figures

# figures-golden regenerates the committed per-figure goldens under
# testdata/golden/ after a deliberate model change.
figures-golden:
	$(GO) test -run TestFiguresGolden -update .

# validate regenerates the committed FINDINGS baselines: the full
# hypothesis set evaluated over freshly regenerated figure tables, with
# the invariant checker armed. Exit code 1 if any gate hypothesis fails.
# Run after a deliberate model change, together with figures-golden.
validate:
	$(GO) run ./cmd/validate -out FINDINGS.md -json findings.json

# validate-smoke is the CI fidelity gate: evaluate the gate-severity
# hypotheses against freshly regenerated tables and fail on any
# out-of-band paper claim. The report lands in /tmp for artifact upload.
validate-smoke:
	$(GO) run ./cmd/validate -severity gate \
		-out /tmp/hostsim-findings.md -json /tmp/hostsim-findings.json

# validate-sensitivity runs the one-factor cost-model sweeps over the
# headline knobs, classifying paper claims as fragile or robust. Slow
# (dozens of full table regenerations) — not part of CI.
validate-sensitivity:
	$(GO) run ./cmd/validate -sens headline \
		-sens-out SENSITIVITY.md -json sensitivity.json
