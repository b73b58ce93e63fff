// Package figures regenerates every table and figure of the paper's
// evaluation (§3, Figs. 3-13 and Table 2) from the simulator. Each
// experiment produces text tables with the same rows/series the paper
// plots; cmd/figures renders them and bench_test.go wraps each in a
// benchmark.
package figures

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hostsim"
	"hostsim/internal/runner"
)

// RunConfig controls simulation length and seeding for all experiments.
type RunConfig struct {
	Seed     int64
	Warmup   time.Duration
	Duration time.Duration
	// Jobs is the number of simulations run at once, whether for one
	// experiment or for every experiment of a RunAll. <= 1 means serial.
	// Output is byte-identical at any value: results are always assembled
	// in spec order and each run is an isolated, seeded simulation.
	Jobs int
	// Check runs every simulation with the conservation-law invariant
	// checker armed (fail-fast). Audits are pure reads, so checked runs
	// produce byte-identical tables.
	Check bool
	// CostScale perturbs individual per-operation cycle costs (see
	// hostsim.Config.CostScale); the validate sensitivity sweeps use it
	// to regenerate tables under a perturbed cost model. The run memo
	// keys on the config's value, so runs at different scales never
	// alias.
	CostScale map[string]float64
}

// jobs returns the effective parallelism degree.
func (rc RunConfig) jobs() int {
	if rc.Jobs <= 1 {
		return 1
	}
	return rc.Jobs
}

// Default returns the standard measurement window.
func Default() RunConfig {
	return RunConfig{Seed: 7, Warmup: 15 * time.Millisecond, Duration: 25 * time.Millisecond}
}

func (rc RunConfig) config(s hostsim.Stack) hostsim.Config {
	cfg := hostsim.Config{Stack: s, Seed: rc.Seed, Warmup: rc.Warmup, Duration: rc.Duration,
		CostScale: rc.CostScale}
	if rc.Check {
		cfg.Check = &hostsim.CheckOptions{}
	}
	return cfg
}

// Table is one rendered figure/table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// CSV renders the table as comma-separated values (header + rows).
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one paper figure. It declares its simulations
// instead of running them, so RunAll can plan every experiment's runs as
// one batch.
type Experiment struct {
	ID    string // e.g. "fig3a"
	Title string
	Paper string // the paper's reported takeaway, for EXPERIMENTS.md
	// Runs names the experiment's simulations in the order Render reads
	// their results; nil for a table that simulates nothing (table2).
	Runs   func(RunConfig) []runSpec
	Render func(RunConfig, []*hostsim.Result) (*Table, error)
}

// Run regenerates the experiment's table from a batch of its own runs.
func (e Experiment) Run(rc RunConfig) (*Table, error) {
	return e.render(rc, runBatch(rc, e.specs(rc)))
}

// specs lists e's runs; none for a table that simulates nothing.
func (e Experiment) specs(rc RunConfig) []runSpec {
	if e.Runs == nil {
		return nil
	}
	return e.Runs(rc)
}

// render builds the table from the results of e's runs, in spec order.
func (e Experiment) render(rc RunConfig, res []runner.Result[*hostsim.Result]) (*Table, error) {
	rs, err := values(res)
	if err != nil {
		return nil, err
	}
	return e.Render(rc, rs)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i].ID, out[j].ID) })
	return out
}

// Less reports whether id a sorts before id b in paper order; consumers
// (validate) use it to keep derived id lists in the same order as All().
func Less(a, b string) bool { return less(a, b) }

// less orders figure ids naturally (fig3a < fig3e < fig10a < table2).
func less(a, b string) bool {
	na, sa := splitID(a)
	nb, sb := splitID(b)
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func splitID(id string) (int, string) {
	digits, suffix := "", ""
	for i := 0; i < len(id); i++ {
		if id[i] >= '0' && id[i] <= '9' {
			digits += string(id[i])
		} else if digits != "" {
			suffix = id[i:]
			break
		}
	}
	var n int
	fmt.Sscanf(digits, "%d", &n)
	if strings.HasPrefix(id, "table") {
		n += 100 // tables sort after figures
	}
	if strings.HasPrefix(id, "ext") {
		n += 200 // extensions after tables
	}
	if strings.HasPrefix(id, "abl") {
		n += 300 // ablations after extensions
	}
	if strings.HasPrefix(id, "app") {
		n += 400 // appendix breakdowns last
	}
	if strings.HasPrefix(id, "fab") {
		n += 500 // fabric topologies after appendix
	}
	return n, suffix
}

// IDs lists every registered experiment id in paper order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared run helpers. Runs are memoized per (config, workload): within a
// batch, planBatch runs each distinct scenario once, and the memo lets a
// later batch (another Experiment.Run, a benchmark op) reuse it.
//
// The key is the JSON encoding of the (config, workload) pair: it follows
// pointers to their values and orders map keys, so configs that are equal
// in value share a run however their option structs were allocated, and
// an option struct changed in place never hits a stale entry.

var (
	cacheMu  sync.Mutex
	runCache = map[string]*hostsim.Result{}
)

// memoKey renders a (config, workload) pair as its run-memo key.
func memoKey(cfg hostsim.Config, wl hostsim.Workload) (string, error) {
	b, err := json.Marshal(struct {
		Cfg hostsim.Config
		WL  hostsim.Workload
	}{cfg, wl})
	if err != nil {
		return "", fmt.Errorf("figures: run memo key: %w", err)
	}
	return string(b), nil
}

// runKeyed runs s, or returns the memoized result under its key. A failed
// run is not memoized.
func runKeyed(key string, s runSpec) (*hostsim.Result, error) {
	cacheMu.Lock()
	r, ok := runCache[key]
	cacheMu.Unlock()
	if ok {
		return r, nil
	}
	r, err := hostsim.Run(s.cfg, s.wl)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	runCache[key] = r
	cacheMu.Unlock()
	return r, nil
}

// CacheSize returns the number of memoized runs (tests).
func CacheSize() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return len(runCache)
}

// ClearCache drops memoized runs (benchmarks use it to avoid reuse).
func ClearCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	runCache = map[string]*hostsim.Result{}
}

// runSpec names one simulation of a batch.
type runSpec struct {
	cfg hostsim.Config
	wl  hostsim.Workload
}

// batchJob is one distinct run of a batch: a memo key and the spec that
// first named it, or the error that kept the spec's key from rendering.
type batchJob struct {
	key    string
	spec   runSpec
	frames int64 // predicted cost, see wireFrames
	err    error
}

// planBatch renders each spec's memo key once and keeps one job per
// distinct key. jobOf maps each spec to its job, and order lists the jobs
// costliest first, ties in submission order.
func planBatch(specs []runSpec) (jobs []batchJob, jobOf, order []int) {
	jobOf = make([]int, len(specs))
	byKey := map[string]int{}
	for i, s := range specs {
		key, err := memoKey(s.cfg, s.wl)
		if j, seen := byKey[key]; seen {
			jobOf[i] = j
			continue
		}
		if err == nil {
			byKey[key] = len(jobs)
		}
		jobOf[i] = len(jobs)
		jobs = append(jobs, batchJob{key, s, wireFrames(s.cfg), err})
	}
	order = make([]int, len(jobs))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].frames > jobs[order[b]].frames })
	return jobs, jobOf, order
}

// runBatch evaluates every spec — rc.Jobs at a time — and returns one
// result per spec, in spec order. It is the package's only dispatcher.
// Each distinct run executes once, and the workers take the runs
// costliest first (planBatch), so a long run never starts last while the
// other workers idle.
func runBatch(rc RunConfig, specs []runSpec) []runner.Result[*hostsim.Result] {
	jobs, jobOf, order := planBatch(specs)
	res := runner.Map(order, func(j int) (*hostsim.Result, error) {
		if jobs[j].err != nil {
			return nil, jobs[j].err
		}
		return runKeyed(jobs[j].key, jobs[j].spec)
	}, rc.jobs())
	done := make([]runner.Result[*hostsim.Result], len(jobs))
	for k, j := range order {
		done[j] = res[k]
	}
	out := make([]runner.Result[*hostsim.Result], len(specs))
	for i, j := range jobOf {
		out[i] = done[j]
	}
	return out
}

// values unwraps a batch's results. The first failed run in spec order is
// the error, as a serial loop over the specs would have reported it.
func values(res []runner.Result[*hostsim.Result]) ([]*hostsim.Result, error) {
	out := make([]*hostsim.Result, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}

// wireFrames predicts a run's cost from the frames its hosts put on the
// wire: hosts × (Warmup + Duration) ÷ MTU, which is proportional to the
// frame count at any fixed line rate. Only the order it induces matters.
func wireFrames(cfg hostsim.Config) int64 {
	hosts := int64(2)
	if cfg.Fabric != nil {
		hosts = int64(cfg.Fabric.Hosts)
	}
	mtu := int64(1500)
	if cfg.Stack.JumboFrames {
		mtu = 9000
	}
	return hosts * int64(cfg.Warmup+cfg.Duration) / mtu
}

// RunAll regenerates the given experiments and returns their tables in
// the experiments' order. Every experiment's runs go into one batch, so
// runs shared between figures (3a-3d, 9a-9d, the appendix reuse of Figs.
// 8, 10 and 11, ...) execute once, and at most rc.Jobs simulations run at
// a time. The error, if any, is the first failing experiment's in exps
// order, as a serial loop would report it.
func RunAll(rc RunConfig, exps []Experiment) ([]*Table, error) {
	var specs []runSpec
	ends := make([]int, len(exps))
	for i, e := range exps {
		specs = append(specs, e.specs(rc)...)
		ends[i] = len(specs)
	}
	res := runBatch(rc, specs)
	out := make([]*Table, len(exps))
	start := 0
	for i, e := range exps {
		t, err := e.render(rc, res[start:ends[i]])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out[i], start = t, ends[i]
	}
	return out, nil
}

// stackStep is one named stack configuration of a figure's series.
type stackStep struct {
	Name  string
	Stack hostsim.Stack
}

// ladder returns the paper's incremental optimization steps of Fig. 3a.
func ladder() []stackStep {
	noOpt := hostsim.NoOptimizations()
	tsogro := noOpt
	tsogro.TSO, tsogro.GSO, tsogro.GRO = true, true, true
	jumbo := tsogro
	jumbo.JumboFrames = true
	all := hostsim.AllOptimizations()
	return []stackStep{
		{"No Opt.", noOpt},
		{"+TSO/GRO", tsogro},
		{"+Jumbo", jumbo},
		{"+aRFS (all)", all},
	}
}

// ablations returns Fig. 3a's leave-one-out columns.
func ablations() []stackStep {
	all := hostsim.AllOptimizations()
	noTSOGRO := all
	noTSOGRO.TSO, noTSOGRO.GRO = false, false // GSO stays on (kernel default)
	noJumbo := all
	noJumbo.JumboFrames = false
	return []stackStep{
		{"All Opt.", all},
		{"w/o TSO/GRO", noTSOGRO},
		{"w/o Jumbo", noJumbo},
	}
}

// breakdownColumns is the Table-1 category order used in all breakdowns.
var breakdownColumns = []string{
	"data_copy", "tcp/ip", "netdev", "skb_mgmt", "memory", "lock", "sched", "etc",
}

func breakdownRow(name string, bd map[string]float64) []string {
	row := []string{name}
	for _, c := range breakdownColumns {
		row = append(row, fmt.Sprintf("%.3f", bd[c]))
	}
	return row
}

func breakdownHeader(first string) []string {
	return append([]string{first}, breakdownColumns...)
}

// breakdown renders a table of one Table-1 breakdown row per run, the
// sender's or the receiver's, labelled in run order.
func breakdown(id, title, first string, rows []string, sender bool, notes ...string) func(RunConfig, []*hostsim.Result) (*Table, error) {
	return func(_ RunConfig, res []*hostsim.Result) (*Table, error) {
		t := &Table{ID: id, Title: title, Columns: breakdownHeader(first), Notes: notes}
		for i, r := range res {
			bd := r.Receiver.Breakdown
			if sender {
				bd = r.Sender.Breakdown
			}
			t.Rows = append(t.Rows, breakdownRow(rows[i], bd))
		}
		return t, nil
	}
}

// labels renders one row label per element of xs.
func labels[T any](xs []T, f func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func stepName(s stackStep) string { return s.Name }

// singleFlow is the one-flow host-pair transfer most figures measure.
func singleFlow() hostsim.Workload { return hostsim.LongFlowWorkload(hostsim.PatternSingle, 1) }

// allOpts names one all-optimizations run of wl.
func allOpts(rc RunConfig, wl hostsim.Workload) runSpec {
	return runSpec{rc.config(hostsim.AllOptimizations()), wl}
}

// sweep names n all-optimizations runs of wl, the i-th changed by set.
func sweep(n int, wl hostsim.Workload, set func(s *runSpec, i int)) func(RunConfig) []runSpec {
	return func(rc RunConfig) []runSpec {
		specs := make([]runSpec, n)
		for i := range specs {
			specs[i] = allOpts(rc, wl)
			set(&specs[i], i)
		}
		return specs
	}
}

func gb(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
