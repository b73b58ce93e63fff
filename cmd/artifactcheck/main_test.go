package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hostsim"
)

// artifacts renders every artifact of one lossy RPC pair and one buffered
// fabric incast, each with every observer it can arm, in both encodings
// where an artifact has two: keyed by name, the JSON lines under
// name+".jsonl". Both runs list a trace: the pair's, merging data-path and
// message tracks, is "trace", the incast's fabric tracks "fabric trace".
func artifacts(t *testing.T) map[string][]byte {
	t.Helper()
	pair, err := hostsim.Run(hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7, LossRate: 0.01,
		Warmup: time.Millisecond, Duration: 3 * time.Millisecond,
		Profile:     &hostsim.ProfileOptions{},
		Inspect:     &hostsim.InspectOptions{},
		MsgTrace:    &hostsim.MsgTraceOptions{},
		Telemetry:   &hostsim.Telemetry{},
		TraceEvents: 1 << 12, TraceSpans: true,
	}, hostsim.RPCIncastWorkload(4, 16384))
	if err != nil {
		t.Fatal(err)
	}
	fab, err := hostsim.Run(hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7,
		Warmup: time.Millisecond, Duration: 3 * time.Millisecond,
		Fabric:    &hostsim.FabricOptions{Hosts: 4, SharedBufferKB: 128},
		FabricObs: &hostsim.FabricObsOptions{BurstThresholdKB: 16},
	}, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	a := make(map[string][]byte)
	render := func(name string, write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, dup := a[name]; dup {
			t.Fatalf("two runs list %s", name)
		}
		a[name] = buf.Bytes()
	}
	for _, r := range []*hostsim.Result{pair, fab} {
		for _, art := range r.Artifacts() {
			if r == fab && art.Name == "trace" {
				art.Name = "fabric trace"
			}
			render(art.Name, art.Write)
			if art.JSONL != nil {
				render(art.Name+".jsonl", art.JSONL)
			}
		}
	}
	return a
}

// unchecked names the one artifact no check covers: folded stacks are
// free-form flamegraph.pl input.
const unchecked = "folded"

// dropEvent removes the first trace event whose JSON contains substr.
func dropEvent(t *testing.T, trace []byte, substr string) []byte {
	var evs []json.RawMessage
	if err := json.Unmarshal(trace, &evs); err != nil {
		t.Fatal(err)
	}
	for i, e := range evs {
		if bytes.Contains(e, []byte(substr)) {
			out, err := json.Marshal(append(evs[:i:i], evs[i+1:]...))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	t.Fatalf("no event contains %s", substr)
	return nil
}

// TestCheckFiles passes every clean artifact and fails each corrupted
// one on the rule it breaks.
func TestCheckFiles(t *testing.T) {
	a := artifacts(t)
	var clean [][]byte
	for name, data := range a {
		if name != unchecked {
			clean = append(clean, data)
		}
	}
	if _, ok := a[unchecked]; !ok {
		t.Errorf("the fixture lists no %s artifact to exempt", unchecked)
	}

	lines := strings.Split(string(a["fabric-report"]), "\n")
	f := strings.Split(lines[1], ",")
	fwd, _ := strconv.Atoi(f[3])
	f[3] = strconv.Itoa(fwd + 1)
	lines[1] = strings.Join(f, ",")
	offByOne := []byte(strings.Join(lines, "\n"))

	badBlock := bytes.Clone(a["pcap"])
	binary.LittleEndian.PutUint32(badBlock[4:], 13)

	rows := strings.Split(string(a["telemetry"]), "\n")
	rows[1], rows[2] = rows[2], rows[1]
	backInTime := []byte(strings.Join(rows, "\n"))

	probe := strings.SplitAfter(string(a["probe"]), "\n")
	rewound := "0" + probe[1][strings.Index(probe[1], ","):] // the same connection at time 0
	probeBackInTime := []byte(strings.Join(slices.Insert(probe, 2, rewound), ""))

	for _, c := range []struct {
		name  string
		files [][]byte
		want  string // "" means every file passes
	}{
		{"clean", clean, ""},
		{"ledger off by one", [][]byte{offByOne}, "ingress ledger inexact"},
		{"dropped stage slice", [][]byte{dropEvent(t, a["trace"], `"cat":"stage"`)}, "stage slices, want 8"},
		{"bad pcapng block length", [][]byte{badBlock}, "bad block length 13"},
		{"timeline going back in time", [][]byte{backInTime}, "not after"},
		{"unnamed pid", [][]byte{dropEvent(t, a["trace"], `"process_name"`)}, "before its process_name"},
		{"truncated profile", [][]byte{a["pprof"][:len(a["pprof"])/2]}, "profile:"},
		{"tail report without a band", [][]byte{bytes.Replace(a["tail"], []byte("\np999-max "), []byte("\n"), 1)},
			"lacks the p999-max band row"},
		{"unknown file kind", [][]byte{a[unchecked]}, "unknown artifact kind"},
		{"probe going back in time", [][]byte{probeBackInTime}, "before"},
		{"probe event unknown", [][]byte{bytes.Replace(a["probe.jsonl"], []byte(`"event":"ack"`), []byte(`"event":"sack"`), 1)},
			`unknown event "sack"`},
		{"probe row short a column", [][]byte{bytes.Replace(a["probe"], []byte(",ack,"), []byte(",ack"), 1)}, "10 columns, want 11"},
		{"series without a port's backlog", [][]byte{a["fabric-report"],
			bytes.Replace(a["fabric-timeline.jsonl"], []byte("port001/backlog_bytes"), []byte("port001/backlog"), 1)},
			"lacks port001/backlog_bytes"},
	} {
		dir := t.TempDir()
		var paths []string
		for i, data := range c.files {
			paths = append(paths, filepath.Join(dir, fmt.Sprint(i)))
			if err := os.WriteFile(paths[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out strings.Builder
		ok := checkFiles(paths, &out)
		if c.want == "" && !ok {
			t.Errorf("%s: rejected:\n%s", c.name, out.String())
		}
		if c.want != "" && (ok || !strings.Contains(out.String(), c.want)) {
			t.Errorf("%s: want a failure mentioning %q, got:\n%s", c.name, c.want, out.String())
		}
	}
}
