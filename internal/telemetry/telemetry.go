// Package telemetry provides the simulator's time-resolved observability
// layer: a registry of named counters and gauges that every subsystem
// registers into, an interval sampler that snapshots the registry into a
// ring-buffered timeseries (dumpable as CSV or JSONL), and a Chrome
// trace-event exporter that renders per-core execution spans and flow
// lifecycle events for Perfetto / chrome://tracing.
//
// The whole layer follows the nil-is-free convention of internal/trace: a
// nil *Registry hands out nil *Counters, and every method of a nil
// Counter or Registry is a no-op, so the data path carries no telemetry
// cost unless a registry is installed.
package telemetry

import "fmt"

// Counter is a monotonically increasing event count. Subsystems hold the
// *Counter returned by Registry.Counter and bump it on their hot paths; a
// nil Counter (handed out by a nil Registry) makes every bump a no-op.
type Counter struct {
	v int64
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (which may be any sign; counters in this simulator only ever
// grow, but the registry does not enforce it). Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// metric is one registered timeseries column.
type metric struct {
	name string
	read func() float64
}

// Registry holds the named metrics of one simulation run. Metrics are
// sampled in registration order, which is deterministic because all
// registration happens during single-threaded simulation setup.
//
// A nil *Registry is valid: Counter returns nil (a no-op counter) and
// Gauge does nothing, so subsystems can register unconditionally.
type Registry struct {
	metrics []metric
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Counter registers a new counter under name and returns it. On a nil
// registry it returns nil, which is a valid no-op counter. Registering a
// duplicate name panics: metric names identify timeline columns.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, func() float64 { return float64(c.v) })
	return c
}

// Gauge registers a probe that is evaluated at each sample. Probes must
// be pure reads of simulation state: they run interleaved with the
// simulation and must not perturb it. No-op on a nil registry.
func (r *Registry) Gauge(name string, probe func() float64) {
	if r == nil {
		return
	}
	if probe == nil {
		panic("telemetry: nil gauge probe")
	}
	r.register(name, probe)
}

func (r *Registry) register(name string, read func() float64) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if _, dup := r.index[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, read: read})
}

// Len returns the number of registered metrics (0 on nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	return out
}

// ReadInto evaluates every metric in registration order into dst, resized
// to one value per metric (reusing its capacity), and returns it. A nil
// registry returns dst emptied.
func (r *Registry) ReadInto(dst []float64) []float64 {
	if r == nil {
		return dst[:0]
	}
	if cap(dst) < len(r.metrics) {
		dst = make([]float64, len(r.metrics))
	}
	dst = dst[:len(r.metrics)]
	for i, m := range r.metrics {
		dst[i] = m.read()
	}
	return dst
}

// Value evaluates one metric by name; ok is false if it is not registered.
func (r *Registry) Value(name string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.metrics[i].read(), true
}
