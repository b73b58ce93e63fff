package main

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"hostsim"
)

func TestTraceConfig(t *testing.T) {
	for _, tc := range []struct {
		n, flow    int
		out        bool
		wantEvents int
		wantSpans  bool
	}{
		{0, 0, false, 0, false},
		{50, 0, false, 50, false},
		{0, 1, false, 256, false},
		{50, 1, false, 50, false},
		{0, 0, true, 1 << 16, true},
		{50, 0, true, 50, true},
		{0, 1, true, 1 << 16, false},
		{50, 1, true, 50, false},
	} {
		events, spans := traceConfig(tc.n, tc.flow, tc.out)
		if events != tc.wantEvents || spans != tc.wantSpans {
			t.Errorf("traceConfig(%d, %d, %v) = %d, %v; want %d, %v",
				tc.n, tc.flow, tc.out, events, spans, tc.wantEvents, tc.wantSpans)
		}
	}
}

func TestCheckSeeds(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-seeds", "2", "-dur", "3ms"}, ""},
		{[]string{"-seeds", "2", "-telemetry-out", "x.csv"}, "-seeds 2 cannot be combined with -telemetry-out"},
	} {
		fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("seeds", 1, "")
		fs.Duration("dur", 0, "")
		fs.String("telemetry-out", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := checkSeeds(fs); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%v: got %q, want %q", tc.args, got, tc.want)
		}
	}
}

func TestCheckOutputDirs(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing")
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-pcap-out", filepath.Join(dir, "x.pcapng"), "-tail-report", "-"}, ""},
		{[]string{"-fabric-report", "-", "-dur", "3ms"}, ""},
		{[]string{"-pcap-out", filepath.Join(missing, "x.pcapng")},
			"-pcap-out " + filepath.Join(missing, "x.pcapng") + ": directory " + missing + " does not exist"},
		{[]string{"-tail-report", filepath.Join(missing, "tail.txt")},
			"-tail-report " + filepath.Join(missing, "tail.txt") + ": directory " + missing + " does not exist"},
		{[]string{"-probe-out", "-"}, "-probe-out -: only -tail-report and -fabric-report print to stdout; name a file"},
		{[]string{"-tail-report", "-", "-pcap-out", "-"}, "-pcap-out -: only -tail-report and -fabric-report print to stdout; name a file"},
	} {
		fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Duration("dur", 0, "")
		fs.String("pcap-out", "", "")
		fs.String("tail-report", "", "")
		fs.String("fabric-report", "", "")
		fs.String("probe-out", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := checkOutputDirs(fs); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%v: got %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestWriterFor checks the one suffix rule: a .jsonl path takes an
// artifact's JSON lines when it has them, any other path its primary
// encoding, and a missing artifact fails the write.
func TestWriterFor(t *testing.T) {
	emit := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	arts := []hostsim.Artifact{
		{Name: "probe", Write: emit("csv"), JSONL: emit("jsonl")},
		{Name: "pcap", Write: emit("pcapng")},
	}
	for _, tc := range []struct{ name, path, want string }{
		{"probe", "p.csv", "csv"},
		{"probe", "p.txt", "csv"},
		{"probe", "p.jsonl", "jsonl"},
		{"pcap", "c.jsonl", "pcapng"},
		{"ss", "s.csv", "run lists no ss artifact"},
	} {
		var b strings.Builder
		err := writerFor(arts, tc.name, tc.path)(&b)
		got := b.String()
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s to %s: got %q, want %q", tc.name, tc.path, got, tc.want)
		}
	}
}
