package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"hostsim/internal/cpumodel"
	"hostsim/internal/trace"
)

// ChromeEvent is one entry of the Chrome trace-event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are in microseconds, as the format requires.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// usOf converts simulated nanoseconds to trace-event microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// chromeEnc accumulates trace objects, assigning pids to named processes
// in first-appearance order and emitting the metadata events Perfetto
// needs to label them. Shared by the event renderer (WriteChromeTrace)
// and the span renderer (WriteChromeSpans).
type chromeEnc struct {
	pids map[string]int
	tids map[[2]int]bool // (pid, tid) pairs with thread_name emitted
	objs []ChromeEvent
}

func newChromeEnc() *chromeEnc {
	return &chromeEnc{pids: make(map[string]int), tids: make(map[[2]int]bool)}
}

// pid returns the process id for a named process, emitting its
// process_name metadata on first appearance.
func (e *chromeEnc) pid(process string) int {
	if p, ok := e.pids[process]; ok {
		return p
	}
	p := len(e.pids) + 1
	e.pids[process] = p
	e.objs = append(e.objs, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: p,
		Args: map[string]any{"name": process},
	})
	return p
}

// threadName emits a thread_name metadata event once per (pid, tid).
func (e *chromeEnc) threadName(pid, tid int, name string) {
	if name == "" || e.tids[[2]int{pid, tid}] {
		return
	}
	e.tids[[2]int{pid, tid}] = true
	e.objs = append(e.objs, ChromeEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// flush encodes the accumulated objects as one JSON array. An empty
// accumulation encodes as a valid empty trace.
func (e *chromeEnc) flush(w io.Writer) error {
	if e.objs == nil {
		e.objs = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(e.objs)
}

// ReadChromeTrace decodes a trace written by WriteChromeTrace or
// WriteChromeSpans and checks the rules chromeEnc keeps for every
// producer: each event has a known phase (M, X, i or C), non-negative ts
// and dur, and a pid whose process_name metadata came earlier. Checks of
// one producer's own rules (mtrace.CheckSpans) start from its result.
func ReadChromeTrace(data []byte) ([]ChromeEvent, error) {
	var evs []ChromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, fmt.Errorf("telemetry: chrome trace: %w", err)
	}
	named := make(map[int]bool)
	for i, e := range evs {
		switch {
		case e.Ph != "M" && e.Ph != "X" && e.Ph != "i" && e.Ph != "C":
			return nil, fmt.Errorf("telemetry: event %d (%q): unknown phase %q", i, e.Name, e.Ph)
		case e.Ts < 0 || e.Dur < 0:
			return nil, fmt.Errorf("telemetry: event %d (%q): negative ts or dur", i, e.Name)
		case e.Ph == "M" && e.Name == "process_name":
			named[e.Pid] = true
		case !named[e.Pid]:
			return nil, fmt.Errorf("telemetry: event %d (%q): pid %d used before its process_name", i, e.Name, e.Pid)
		}
	}
	return evs, nil
}

// WriteChromeTrace renders traced events as a Chrome trace-event JSON
// array, loadable directly in Perfetto or chrome://tracing. Hosts become
// processes (pid per host, named via metadata events), cores become
// threads (tid = core id). Span start/end pairs (SoftirqStart/End,
// ThreadStart/End) become complete "X" events named by their dominant
// Table-1 category; all other kinds become thread-scoped instant events.
//
// Writing an empty event list produces a valid empty trace.
func WriteChromeTrace(w io.Writer, events []trace.Event) error {
	enc := newChromeEnc()

	// One pending span start per (host, core): cores execute work items
	// serially, so starts and ends of a core strictly alternate.
	type spanKey struct {
		host string
		core int
	}
	pending := make(map[spanKey]trace.Event)

	for _, e := range events {
		pid := enc.pid(e.Host)
		switch e.Kind {
		case trace.SoftirqStart, trace.ThreadStart:
			pending[spanKey{e.Host, e.Core}] = e
		case trace.SoftirqEnd, trace.ThreadEnd:
			key := spanKey{e.Host, e.Core}
			start, ok := pending[key]
			if !ok {
				continue // start evicted from the ring; skip the orphan
			}
			delete(pending, key)
			ctxName := "softirq"
			if e.Kind == trace.ThreadEnd {
				ctxName = "thread"
			}
			enc.objs = append(enc.objs, ChromeEvent{
				Name: cpumodel.Category(e.A).String(),
				Cat:  ctxName,
				Ph:   "X",
				Ts:   usOf(int64(start.At)),
				Dur:  usOf(int64(e.At - start.At)),
				Pid:  pid,
				Tid:  e.Core,
				Args: map[string]any{"cycles": e.B},
			})
		default:
			enc.objs = append(enc.objs, ChromeEvent{
				Name: e.Kind.String(),
				Cat:  "flow",
				Ph:   "i",
				Ts:   usOf(int64(e.At)),
				Pid:  pid,
				Tid:  e.Core,
				S:    "t",
				Args: map[string]any{"flow": int64(e.Flow), "a": e.A, "b": e.B},
			})
		}
	}
	return enc.flush(w)
}

// Span is one renderer-agnostic trace entry for WriteChromeSpans: a
// complete duration slice (or an instant) on a named process/thread.
// Producers that are not the event tracer — the message tracer's
// exemplar span trees, for one — build Spans and reuse this writer
// instead of reimplementing the trace-event format.
type Span struct {
	Process    string // process label; pids are assigned in first-appearance order
	Thread     int    // tid within the process
	ThreadName string // optional thread label, emitted once per (process, thread)
	Name       string
	Cat        string
	StartNS    int64
	DurNS      int64          // ignored for instants and counters
	Instant    bool           // render as a thread-scoped instant instead of a slice
	Counter    bool           // render as a counter sample ("C"); Perfetto draws a counter track per Name
	Value      float64        // the counter sample value (Counter spans only)
	Args       map[string]any // optional; retained by reference
}

// WriteChromeSpans renders prebuilt spans as a Chrome trace-event JSON
// array (Perfetto-loadable), in input order. Writing no spans produces a
// valid empty trace.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	enc := newChromeEnc()
	for _, s := range spans {
		pid := enc.pid(s.Process)
		enc.threadName(pid, s.Thread, s.ThreadName)
		if s.Counter {
			args := s.Args
			if args == nil {
				args = map[string]any{"value": s.Value}
			}
			enc.objs = append(enc.objs, ChromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "C",
				Ts: usOf(s.StartNS), Pid: pid, Tid: s.Thread,
				Args: args,
			})
			continue
		}
		if s.Instant {
			enc.objs = append(enc.objs, ChromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "i",
				Ts: usOf(s.StartNS), Pid: pid, Tid: s.Thread,
				S: "t", Args: s.Args,
			})
			continue
		}
		enc.objs = append(enc.objs, ChromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: usOf(s.StartNS), Dur: usOf(s.DurNS),
			Pid: pid, Tid: s.Thread, Args: s.Args,
		})
	}
	return enc.flush(w)
}
