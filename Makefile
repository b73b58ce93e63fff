GO ?= go

.PHONY: all build test check fmt vet race bench smoke fuzz-smoke figures figures-golden validate validate-smoke validate-sensitivity

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

# smoke is the CI artifact gate. Two netsim runs arm every exporter: a
# lossy RPC pair (profile, pcap, probe, ss, tail report, telemetry, and
# the trace with data-path and message tracks) and a buffered, lossy,
# ECN-marking 8-host DCTCP fabric incast (fabric report, time series, and
# the trace with data-path, message and fabric tracks), so the fabric
# report's ledger holds admission drops, wire losses and marks. A third
# traces one flow's data-path events (-trace-flow 1, which records no
# execution spans). One artifactcheck call then checks every file they
# write; folded stacks, which have no checker, only need content.
# The last lines require netsim to reject flag combinations that would
# drop or misplace an artifact: -seeds with an output, and "-" (stdout)
# on a flag that only writes files.
SMOKE := /tmp/hostsim-smoke
smoke:
	$(GO) run ./cmd/netsim -workload rpc -rpcclients 8 -rpcsize 65536 \
		-loss 0.01 -warmup 2ms -dur 20ms -seed 7 -check \
		-profile-out $(SMOKE).pb.gz -folded-out $(SMOKE).folded -latency-breakdown \
		-pcap-out $(SMOKE).pcapng -probe-out $(SMOKE).probe.jsonl -ss-out $(SMOKE).ss.csv \
		-tail-report $(SMOKE).tail.txt -trace-out $(SMOKE).trace.json \
		-telemetry-out $(SMOKE).telemetry.jsonl > /dev/null
	$(GO) run ./cmd/netsim -fabric-hosts 8 -fabric-buffer-kb 256 -pattern incast \
		-loss 0.001 -ecn-kb 64 -cc dctcp \
		-dur 10ms -warmup 5ms -check -burst-kb 64 \
		-fabric-report $(SMOKE).fab.csv -fabric-ts-out $(SMOKE).fabts.csv \
		-trace-out $(SMOKE).fab.json > /dev/null
	$(GO) run ./cmd/netsim -warmup 2ms -dur 5ms -seed 7 -trace-flow 1 -trace-out $(SMOKE).flow.json > /dev/null
	test -s $(SMOKE).folded
	$(GO) run ./cmd/artifactcheck $(SMOKE).pb.gz $(SMOKE).pcapng $(SMOKE).probe.jsonl $(SMOKE).ss.csv \
		$(SMOKE).tail.txt $(SMOKE).trace.json $(SMOKE).telemetry.jsonl \
		$(SMOKE).fab.csv $(SMOKE).fabts.csv $(SMOKE).fab.json $(SMOKE).flow.json
	$(GO) run ./cmd/figures -only fig3a,fig3e,fig3f -format csv -jobs 2 > $(SMOKE).fig3.csv && test -s $(SMOKE).fig3.csv
	rm -f $(SMOKE).seeds.csv
	! $(GO) run ./cmd/netsim -seeds 2 -telemetry-out $(SMOKE).seeds.csv
	test ! -e $(SMOKE).seeds.csv
	! $(GO) run ./cmd/netsim -probe-out -

# fuzz-smoke is the CI fuzz gate: short coverage-guided walks of the
# configuration space with the conservation-law checker as the oracle.
# FuzzConfig sanitizes its input into valid configs; FuzzRunRaw feeds raw
# fields and also requires that Run never panics. FuzzScheduler drives the
# event engine and a binary-heap oracle with one op script and requires
# identical traces. Run `go test -fuzz=FuzzConfig .` (no -fuzztime) to
# hunt open-ended.
# Each walk starts from the committed seeds only (testdata/fuzz and the
# f.Add calls): `go clean -fuzzcache` drops the inputs earlier walks left
# in $GOCACHE/fuzz, which a 30 s walk would otherwise spend replaying.
# A walk's final "execs" count is then the number of inputs, nearly all
# of them new mutations, that the target ran in 30 s from the same start.
fuzz-smoke:
	$(GO) clean -fuzzcache
	$(GO) test -fuzz=FuzzConfig -fuzztime=30s -run FuzzConfig .
	$(GO) test -fuzz=FuzzRunRaw -fuzztime=30s -run FuzzRunRaw .
	$(GO) test -fuzz=FuzzScheduler -fuzztime=30s -run FuzzScheduler ./internal/sim

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
