// Package profile is hostsim's simulated-cycle profiler: it attributes
// every cycle charged through exec.Ctx.Charge to a hierarchical stack
//
//	host ; softirq|thread ; Table-1 category ; flow-class
//
// and tracks per-packet lifecycle latency (app write → TCP tx → NIC tx →
// wire → NIC rx → GRO flush → TCP rx → app read), the simulator-native
// equivalent of the instrumentation behind the paper's Table 1/Fig. 3
// taxonomy and Fig. 9 latency breakdown. Results export as a gzipped
// pprof profile.proto (go tool pprof, speedscope), folded-stack text
// (FlameGraph), and a per-stage latency table.
//
// A nil *Profiler is a valid no-op everywhere, and when no profiler is
// attached the hooks it relies on (exec charge logs, skb lifecycle
// stamps) are plain pointer tests and field writes — the event-loop hot
// path stays allocation-free, the same contract as trace.Tracer.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/units"
)

// Options configures a profiler attached via hostsim.Config.Profile.
type Options struct {
	// FlowClasses maps a flow id to its class label (the innermost stack
	// frame), e.g. "long" or "rpc". Flows absent from the map are labeled
	// "other"; a nil map labels every flow "flow". Flow-anonymous charges
	// (timers, replenish work) get no class frame at all, and neither do
	// flows labeled "". New reads the map once.
	FlowClasses map[int32]string
}

// maxDenseFlow bounds the flow ids whose class the profiler finds by
// direct index; labeled ids outside [1, maxDenseFlow] go through a map.
const maxDenseFlow = 1 << 16

// ctxKey names one execution context of one host: "softirq" or a thread.
type ctxKey struct{ host, ctx string }

// cell is one attribution stack's total. seen marks a stack that was
// charged, so a stack whose charges sum to zero still appears.
type cell struct {
	cycles units.Cycles
	seen   bool
}

// Profiler accumulates simulated cycles into stacks and per-packet
// lifecycle latency into stage histograms. One Profiler serves all hosts
// of a single run; it is engine-thread-confined (no locks), like every
// other per-run structure.
//
// Stacks live in one flat slice indexed [context][category][class]: class
// labels are interned at New, each (host, context) pair the first time
// it is charged, so recording a charge log hashes nothing per entry.
type Profiler struct {
	freq units.Frequency
	life Lifecycle

	classes   []string       // interned class labels; 0 is "" (no class frame)
	unlabeled int            // class of a flow FlowClasses does not name
	flowClass []int32        // class of flow ids 1..len-1
	farClass  map[int32]int  // class of labeled flow ids beyond flowClass
	ctxIDs    map[ctxKey]int // (host, context) → dense context id
	ctxs      []ctxKey       // dense context id → (host, context)
	cells     []cell         // [context][category][class]
}

// New builds a profiler converting cycles to wall time at freq.
func New(opts Options, freq units.Frequency) *Profiler {
	if freq <= 0 {
		panic("profile: non-positive frequency")
	}
	p := &Profiler{freq: freq, life: newLifecycle(), classes: []string{""}, ctxIDs: make(map[ctxKey]int)}
	ids := map[string]int{"": 0}
	intern := func(label string) int {
		id, ok := ids[label]
		if !ok {
			id = len(p.classes)
			ids[label] = id
			p.classes = append(p.classes, label)
		}
		return id
	}
	if opts.FlowClasses == nil {
		p.unlabeled = intern("flow")
		return p
	}
	p.unlabeled = intern("other")
	dense := int32(0)
	for f := range opts.FlowClasses {
		if f > dense && f <= maxDenseFlow {
			dense = f
		}
	}
	p.flowClass = make([]int32, dense+1)
	for f := range p.flowClass {
		p.flowClass[f] = int32(p.unlabeled)
	}
	for f, label := range opts.FlowClasses {
		switch {
		case f == 0: // flow-anonymous whatever its label
		case f > 0 && f <= dense:
			p.flowClass[f] = int32(intern(label))
		default:
			if p.farClass == nil {
				p.farClass = make(map[int32]int)
			}
			p.farClass[f] = intern(label)
		}
	}
	return p
}

// Freq returns the cycle→time conversion frequency.
func (p *Profiler) Freq() units.Frequency { return p.freq }

// Lifecycle returns the per-packet latency tracker (nil-safe).
func (p *Profiler) Lifecycle() *Lifecycle {
	if p == nil {
		return nil
	}
	return &p.life
}

// Record ingests one completed work item's charge log for the named
// host. It is the exec.ChargeLogFunc target: core.Host wires it via
// exec.System.SetChargeLog.
func (p *Profiler) Record(host string, softirq bool, thread string, log []exec.FlowCharge) {
	k := ctxKey{host: host, ctx: thread}
	if softirq {
		k.ctx = "softirq"
	}
	id, ok := p.ctxIDs[k]
	if !ok {
		id = len(p.ctxs)
		p.ctxIDs[k] = id
		p.ctxs = append(p.ctxs, k)
		p.cells = append(p.cells, make([]cell, cpumodel.NumCategories*len(p.classes))...)
	}
	width := cpumodel.NumCategories * len(p.classes)
	cells := p.cells[id*width : (id+1)*width : (id+1)*width]
	for i := range log {
		e := &log[i]
		if e.Cycles == 0 {
			continue
		}
		c := &cells[int(e.Cat)*len(p.classes)+p.classOf(e.Flow)]
		c.cycles += e.Cycles
		c.seen = true
	}
}

// classOf returns the interned class of a flow id.
func (p *Profiler) classOf(flow int32) int {
	if flow == 0 {
		return 0
	}
	if flow > 0 && int(flow) < len(p.flowClass) {
		return int(p.flowClass[flow])
	}
	if c, ok := p.farClass[flow]; ok {
		return c
	}
	return p.unlabeled
}

// Reset discards everything accumulated so far. hostsim calls it at the
// warmup boundary, next to the engines' accounting reset, so profiler
// totals reconcile exactly with post-warmup category accounting.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	clear(p.cells)
	p.life.Reset()
}

// TotalCycles returns the sum over all stacks.
func (p *Profiler) TotalCycles() units.Cycles {
	var t units.Cycles
	for _, c := range p.cells {
		t += c.cycles
	}
	return t
}

// CategoryTotals sums cycles per Table-1 category name across all hosts,
// contexts and flow classes — the numbers that must equal the runs'
// exec accounting for the same window.
func (p *Profiler) CategoryTotals() map[string]units.Cycles {
	out := make(map[string]units.Cycles)
	for i, c := range p.cells {
		if c.seen {
			out[cpumodel.Category(i/len(p.classes)%cpumodel.NumCategories).String()] += c.cycles
		}
	}
	return out
}

// Stacks returns every (folded stack, cycles) pair sorted by stack
// string — the canonical deterministic ordering used by both exporters.
func (p *Profiler) Stacks() []Stack {
	type keyed struct {
		key string
		Stack
	}
	var all []keyed
	for i, c := range p.cells {
		if !c.seen {
			continue
		}
		class := i % len(p.classes)
		cat := i / len(p.classes) % cpumodel.NumCategories
		k := p.ctxs[i/len(p.classes)/cpumodel.NumCategories]
		frames := []string{k.host, k.ctx, cpumodel.Category(cat).String()}
		if class != 0 {
			frames = append(frames, p.classes[class])
		}
		all = append(all, keyed{strings.Join(frames, ";"), Stack{Frames: frames, Cycles: c.cycles}})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]Stack, len(all))
	for i := range all {
		out[i] = all[i].Stack
	}
	return out
}

// Stack is one aggregated attribution stack, root-first.
type Stack struct {
	Frames []string
	Cycles units.Cycles
}

// WriteFolded writes the profile in Brendan Gregg's folded-stack format
// ("frame;frame;frame count\n", root first), directly consumable by
// flamegraph.pl. Output is byte-deterministic for a given profile.
func (p *Profiler) WriteFolded(w io.Writer) error {
	if p == nil {
		return fmt.Errorf("profile: WriteFolded on nil profiler")
	}
	for _, s := range p.Stacks() {
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.Join(s.Frames, ";"), int64(s.Cycles)); err != nil {
			return err
		}
	}
	return nil
}
