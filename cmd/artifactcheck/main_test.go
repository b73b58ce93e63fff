package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hostsim"
)

// artifacts holds the files netsim would export for one lossy RPC pair
// and one buffered fabric incast, keyed by a short name.
func artifacts(t *testing.T) map[string][]byte {
	t.Helper()
	pair, err := hostsim.Run(hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7, LossRate: 0.01,
		Warmup: time.Millisecond, Duration: 3 * time.Millisecond,
		Profile:     &hostsim.ProfileOptions{},
		Inspect:     &hostsim.InspectOptions{Pcap: true},
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
	for name, write := range map[string]func(io.Writer) error{
		"profile":      pair.WritePprof,
		"pcap":         pair.WritePcap,
		"spans":        pair.WriteSpans,
		"tail":         pair.WriteTailReport,
		"trace":        pair.WriteChromeTrace,
		"timeline":     pair.Timeline.WriteCSV,
		"report":       fab.WriteFabricReport,
		"report.jsonl": fab.WriteFabricReportJSONL,
		"fabric trace": fab.WriteFabricTrace,
		"series":       fab.FabricTimeline.WriteJSONL,
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a[name] = buf.Bytes()
	}
	return a
}

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
	for _, data := range a {
		clean = append(clean, data)
	}

	lines := strings.Split(string(a["report"]), "\n")
	f := strings.Split(lines[1], ",")
	fwd, _ := strconv.Atoi(f[3])
	f[3] = strconv.Itoa(fwd + 1)
	lines[1] = strings.Join(f, ",")
	offByOne := []byte(strings.Join(lines, "\n"))

	badBlock := bytes.Clone(a["pcap"])
	binary.LittleEndian.PutUint32(badBlock[4:], 13)

	rows := strings.Split(string(a["timeline"]), "\n")
	rows[1], rows[2] = rows[2], rows[1]
	backInTime := []byte(strings.Join(rows, "\n"))

	for _, c := range []struct {
		name  string
		files [][]byte
		want  string // "" means every file passes
	}{
		{"clean", clean, ""},
		{"ledger off by one", [][]byte{offByOne}, "ingress ledger inexact"},
		{"dropped stage slice", [][]byte{dropEvent(t, a["spans"], `"cat":"stage"`)}, "stage slices, want 8"},
		{"bad pcapng block length", [][]byte{badBlock}, "bad block length 13"},
		{"timeline going back in time", [][]byte{backInTime}, "not after"},
		{"unnamed pid", [][]byte{dropEvent(t, a["trace"], `"process_name"`)}, "before its process_name"},
		{"truncated profile", [][]byte{a["profile"][:len(a["profile"])/2]}, "profile:"},
		{"tail report without a band", [][]byte{bytes.Replace(a["tail"], []byte("\np999-max "), []byte("\n"), 1)},
			"lacks the p999-max band row"},
		{"unknown file kind", [][]byte{[]byte("sender;softirq;data_copy 42\n")}, "unknown artifact kind"},
		{"series without a port's backlog", [][]byte{a["report"],
			bytes.Replace(a["series"], []byte("port001/backlog_bytes"), []byte("port001/backlog"), 1)},
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
