// Package telemetry provides the simulator's time-resolved observability
// layer: a registry of named gauges and column blocks that every
// subsystem registers into, an interval sampler that snapshots the registry into a
// ring-buffered timeseries (dumpable as CSV or JSONL), and the one Chrome
// trace-event writer (WriteChromeSpans) for Perfetto / chrome://tracing.
// Every trace producer hands that writer Spans: EventSpans turns the
// data-path tracer's per-core execution spans and flow lifecycle events
// into them, and the message tracer and fabric observatory build their
// own, so one run's tracks land in one trace.
//
// A registry only reads: every column is a probe over state its owner
// keeps anyway (a host's counts are plain fields), so the data path
// carries no telemetry cost. Every method of a nil *Registry is a no-op,
// so subsystems can register unconditionally.
package telemetry

import (
	"fmt"
	"strings"
)

// block is one registration: len(names) adjacent columns, named
// prefix+names[i], that one read call fills.
type block struct {
	prefix string
	names  []string
	read   func(dst []float64)
	off    int // the block's first column
}

// slot is one entry of the registry's duplicate-name table: the FNV-1a
// hash of a column's full name and where that name lives (blk is the
// block index plus one, so the zero slot is empty).
type slot struct {
	hash     uint64
	blk, idx int32
}

// Registry holds the named metrics of one simulation run. Metrics are
// sampled in registration order, which is deterministic because all
// registration happens during single-threaded simulation setup.
//
// Registration is by block: one read function fills several adjacent
// columns, so a source with many columns costs one closure, and full
// column names are only built when Names asks for them. Gauge registers
// a one-column block.
//
// A nil *Registry is valid: Gauge and Block do nothing.
type Registry struct {
	blocks []block
	n      int    // registered columns
	table  []slot // open-addressed by name hash, at most half full
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// oneColumn is the suffix list of a one-column block: the prefix is the
// whole name.
var oneColumn = []string{""}

// Gauge registers a one-column probe under name. Like every block's read
// (see Block), the probe runs exactly once per sample, in registration
// order, interleaved with the simulation: it must not perturb the
// simulated system. No-op on a nil registry.
func (r *Registry) Gauge(name string, probe func() float64) {
	if r == nil {
		return
	}
	if probe == nil {
		panic("telemetry: nil gauge probe")
	}
	r.Block(name, oneColumn, func(dst []float64) { dst[0] = probe() })
}

// Block registers len(names) columns named prefix+names[i], in order,
// filled by read. At each sample read runs exactly once, after the
// blocks registered before it, and must set every element of dst, which
// holds one value per name; so a column's probe may keep state between
// samples (an interval rate, say) as long as it changes nothing the
// simulation reads. The registry keeps names without copying it, so
// callers pass a list that never changes. An empty or duplicate full
// name panics here, at registration, without building the name.
// No-op on a nil registry.
func (r *Registry) Block(prefix string, names []string, read func(dst []float64)) {
	if r == nil {
		return
	}
	if read == nil {
		panic("telemetry: nil block read")
	}
	if len(names) == 0 {
		panic("telemetry: block without columns")
	}
	r.blocks = append(r.blocks, block{prefix: prefix, names: names, read: read, off: r.n})
	r.reserve(r.n + len(names))
	blk := int32(len(r.blocks))
	for i, name := range names {
		if len(prefix)+len(name) == 0 {
			panic("telemetry: empty metric name")
		}
		r.insert(slot{hash: fnv(fnv(fnvOffset, prefix), name), blk: blk, idx: int32(i)})
	}
	r.n += len(names)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv folds s into the FNV-1a hash h. Hashing a prefix and then a suffix
// equals hashing their concatenation, wherever the split falls.
func fnv(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// reserve grows the name table, keeping it at most half full, to hold n
// columns.
func (r *Registry) reserve(n int) {
	if 2*n <= len(r.table) {
		return
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	old := r.table
	r.table = make([]slot, size)
	for _, s := range old {
		if s.blk != 0 {
			r.insert(s)
		}
	}
}

// insert adds s to the name table, linearly probing from its hash. Every
// name with the same hash sits on the probe path before the first empty
// slot, so comparing those exactly finds any duplicate.
func (r *Registry) insert(s slot) {
	mask := uint64(len(r.table) - 1)
	b := &r.blocks[s.blk-1]
	for i := s.hash & mask; ; i = (i + 1) & mask {
		t := r.table[i]
		if t.blk == 0 {
			r.table[i] = s
			return
		}
		if t.hash != s.hash {
			continue
		}
		o := &r.blocks[t.blk-1]
		if joinedEqual(b.prefix, b.names[s.idx], o.prefix, o.names[t.idx]) {
			panic(fmt.Sprintf("telemetry: duplicate metric %q", b.prefix+b.names[s.idx]))
		}
	}
}

// joinedEqual reports whether a1+a2 == b1+b2 without building either.
func joinedEqual(a1, a2, b1, b2 string) bool {
	if len(a1)+len(a2) != len(b1)+len(b2) {
		return false
	}
	if len(a1) > len(b1) {
		a1, a2, b1, b2 = b1, b2, a1, a2
	}
	k := len(b1) - len(a1) // b1 is a1 followed by a2[:k]
	return b1[:len(a1)] == a1 && b1[len(a1):] == a2[:k] && a2[k:] == b2
}

// Len returns the number of registered metrics (0 on nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Names returns the metric names in registration order. The names are
// built in one pass into one string, which they slice.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	size := 0
	for _, b := range r.blocks {
		size += len(b.prefix) * len(b.names)
		for _, n := range b.names {
			size += len(n)
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, b := range r.blocks {
		for _, n := range b.names {
			sb.WriteString(b.prefix)
			sb.WriteString(n)
		}
	}
	all := sb.String()
	out := make([]string, 0, r.n)
	at := 0
	for _, b := range r.blocks {
		for _, n := range b.names {
			end := at + len(b.prefix) + len(n)
			out = append(out, all[at:end])
			at = end
		}
	}
	return out
}

// ReadInto evaluates every block in registration order into dst, resized
// to one value per metric (reusing its capacity), and returns it. A nil
// registry returns dst emptied.
func (r *Registry) ReadInto(dst []float64) []float64 {
	if r == nil {
		return dst[:0]
	}
	if cap(dst) < r.n {
		dst = make([]float64, r.n)
	}
	dst = dst[:r.n]
	for _, b := range r.blocks {
		b.read(dst[b.off : b.off+len(b.names) : b.off+len(b.names)])
	}
	return dst
}
