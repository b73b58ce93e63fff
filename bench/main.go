// Command bench measures the simulator's own cost: the wall-clock time,
// allocations and memory of hostsim.Run and of a figure regeneration on
// six fixed workloads, and a per-layer split of the CPU time taken from a
// runtime/pprof profile bucketed by hostsim package. README.md defines
// every metric and workload.
//
// Run a set of all six workloads, or one workload, from the module root:
//
//	go run ./bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out set.json]
//	go run ./bench -compare base.json new.json
//
// The last line of output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when every op
// passed its correctness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hostsim/internal/figures"
)

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all, interleaved in rounds)")
	seed := fs.Int64("seed", 7, "the seed of every workload's simulations")
	seconds := fs.Int("seconds", 0, "time each workload's ops for this many seconds instead of running its fixed op count")
	trace := fs.Int("trace", 1, "1 adds the traced phase; the last line reports the per-layer metrics with 1, the end-to-end metrics with 0")
	out := fs.String("out", "", "also write the set, per-op samples included, as JSON to this file")
	compare := fs.Bool("compare", false, "compare two sets written by -out: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, plan: defaultPlan, workloads: workloads}
	if *seed == figures.Default().Seed { // the seed the golden tables were made with
		o.golden = "testdata/golden/fig3a.txt"
	}
	if *only != "" {
		wl, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *only, names(workloads))
			return 2
		}
		o.workloads = []workload{wl}
	}
	set, err := runSet(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeSet(*out, set); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return report(stdout, set)
}

// report prints the set, ending with the result line, and returns the
// exit code: 1 when any op failed.
func report(w io.Writer, set *setResult) int {
	set.print(w)
	fmt.Fprintln(w, set.resultLine())
	if set.failed() {
		return 1
	}
	return 0
}

func writeSet(path string, s *setResult) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*setResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// names returns the workloads' names joined for messages.
func names(ws []workload) string {
	var out []string
	for _, w := range ws {
		out = append(out, w.name)
	}
	return strings.Join(out, ", ")
}
