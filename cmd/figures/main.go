// Command figures regenerates the paper's evaluation figures and tables
// ("Understanding Host Network Stack Overheads", SIGCOMM 2021) from the
// hostsim simulator and prints them as text tables.
//
// Usage:
//
//	figures                 # regenerate everything, in paper order
//	figures -fig fig3a      # one figure
//	figures -only fig3a,fig4,table2   # a subset, in paper order
//	figures -list           # list available experiments
//	figures -dur 50ms       # longer measurement window
//	figures -jobs 1         # serial regeneration (default: all CPUs)
//	figures -check          # audit conservation laws during every run
//
// Output on stdout is byte-identical at any -jobs value: the selected
// experiments' runs fan out across workers as one batch, but tables are
// printed in paper order, and each simulation is an isolated, seeded run.
// Timing goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hostsim/internal/figures"
)

func main() {
	var (
		fig    = flag.String("fig", "", "experiment id to run (empty = all)")
		only   = flag.String("only", "", "comma-separated experiment ids to run, in paper order (empty = all)")
		list   = flag.Bool("list", false, "list experiments and exit")
		dur    = flag.Duration("dur", 25*time.Millisecond, "measurement window (simulated)")
		warmup = flag.Duration("warmup", 15*time.Millisecond, "warm-up (simulated, excluded)")
		seed   = flag.Int64("seed", 7, "simulation seed")
		format = flag.String("format", "text", "output format: text, csv, markdown")
		jobs   = flag.Int("jobs", runtime.NumCPU(), "simulations run concurrently (1 = serial)")
		chk    = flag.Bool("check", false, "run every simulation with the conservation-law invariant checker armed")
	)
	flag.Parse()

	if *list {
		for _, e := range figures.All() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	switch *format {
	case "text", "csv", "markdown", "md":
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown format %q\n", *format)
		os.Exit(2)
	}

	rc := figures.RunConfig{Seed: *seed, Warmup: *warmup, Duration: *dur, Jobs: *jobs, Check: *chk}
	exps := figures.All()
	if *fig != "" && *only != "" {
		fmt.Fprintln(os.Stderr, "figures: -fig and -only are mutually exclusive")
		os.Exit(2)
	}
	if *fig != "" {
		e, ok := figures.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q; valid ids: %s\n",
				*fig, strings.Join(figures.IDs(), " "))
			os.Exit(2)
		}
		exps = []figures.Experiment{e}
	}
	if *only != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			if _, ok := figures.ByID(id); !ok {
				fmt.Fprintf(os.Stderr, "figures: unknown experiment %q in -only; valid ids: %s\n",
					id, strings.Join(figures.IDs(), " "))
				os.Exit(2)
			}
			want[id] = true
		}
		if len(want) == 0 {
			fmt.Fprintln(os.Stderr, "figures: -only selected no experiments")
			os.Exit(2)
		}
		var sel []figures.Experiment
		for _, e := range exps { // keep paper order regardless of list order
			if want[e.ID] {
				sel = append(sel, e)
			}
		}
		exps = sel
	}
	start := time.Now()
	tables, err := figures.RunAll(rc, exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	for i, tbl := range tables {
		switch *format {
		case "text":
			fmt.Print(tbl.String())
			fmt.Printf("paper: %s\n\n", exps[i].Paper)
		case "csv":
			fmt.Printf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		case "markdown", "md":
			fmt.Println(tbl.Markdown())
		}
	}
	fmt.Fprintf(os.Stderr, "figures: %d experiment(s) in %v (-jobs %d)\n",
		len(exps), time.Since(start).Round(time.Millisecond), *jobs)
}
