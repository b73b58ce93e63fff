package main

import (
	"flag"
	"io"
	"path/filepath"
	"testing"
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
	} {
		fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Duration("dur", 0, "")
		fs.String("pcap-out", "", "")
		fs.String("tail-report", "", "")
		fs.String("fabric-report", "", "")
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
