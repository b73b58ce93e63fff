// Command artifactcheck checks the files netsim exports. It tells each
// file's kind from its content and runs the check that sits beside that
// format's writer:
//
//	gzip magic                                cycle profile   profile.CheckPprof
//	pcapng section header                     packet capture  inspect.CheckPcap
//	[                                         Chrome trace    mtrace.CheckSpans
//	port,host,in_frames, or {"type":          fabric report   fabricobs.CheckReport
//	time_ns,host,flow,event, or {"time_ns":   probe trace     inspect.CheckProbe
//	time_ns or {"names":                      timeline        telemetry.CheckTimeline
//	messages N                                tail report     mtrace.CheckTailReport
//
// Content of any other kind is an error. Each fabric report is also
// cross-checked against every timeline of the same call
// (fabricobs.CheckSeries). It prints one line per file and exits non-zero
// if any check fails.
//
// Usage: artifactcheck <file>...
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"hostsim/internal/fabricobs"
	"hostsim/internal/inspect"
	"hostsim/internal/mtrace"
	"hostsim/internal/profile"
	"hostsim/internal/telemetry"
)

type kind struct {
	name   string
	magics []string
	check  func([]byte) (string, error)
}

var kinds = []kind{
	{"cycle profile", []string{"\x1f\x8b"}, profile.CheckPprof},
	{"packet capture", []string{"\x0a\x0d\x0d\x0a"}, inspect.CheckPcap},
	{"Chrome trace", []string{"["}, mtrace.CheckSpans},
	{"fabric report", []string{"port,host,in_frames,", `{"type":`}, fabricobs.CheckReport},
	{"probe trace", []string{"time_ns,host,flow,event,", `{"time_ns":`}, inspect.CheckProbe}, // before timeline: same time_ns prefix
	{"timeline", []string{"time_ns", `{"names":`}, telemetry.CheckTimeline},
	{"tail report", []string{"messages "}, mtrace.CheckTailReport},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: artifactcheck <file>...")
		os.Exit(2)
	}
	if !checkFiles(os.Args[1:], os.Stdout) {
		os.Exit(1)
	}
}

// checkFiles checks every file, reporting one line each to w, and says
// whether all passed.
func checkFiles(paths []string, w io.Writer) bool {
	ok := true
	fail := func(path string, err error) {
		fmt.Fprintf(w, "%s: FAIL: %v\n", path, err)
		ok = false
	}
	var reports, timelines [][]byte
	var reportPaths []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(path, err)
			continue
		}
		k := kindOf(data)
		if k == nil {
			fail(path, fmt.Errorf("unknown artifact kind"))
			continue
		}
		summary, err := k.check(data)
		if err != nil {
			fail(path, err)
			continue
		}
		fmt.Fprintf(w, "%s: %s: %s\n", path, k.name, summary)
		switch k.name {
		case "fabric report":
			reports, reportPaths = append(reports, data), append(reportPaths, path)
		case "timeline":
			timelines = append(timelines, data)
		}
	}
	for i, r := range reports {
		for _, tl := range timelines {
			if err := fabricobs.CheckSeries(r, tl); err != nil {
				fail(reportPaths[i], err)
			}
		}
	}
	return ok
}

// kindOf returns the kind whose magic data starts with, or nil.
func kindOf(data []byte) *kind {
	for i, k := range kinds {
		for _, m := range k.magics {
			if bytes.HasPrefix(data, []byte(m)) {
				return &kinds[i]
			}
		}
	}
	return nil
}
