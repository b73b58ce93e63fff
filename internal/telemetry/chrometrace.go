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

// ReadChromeTrace decodes a trace written by WriteChromeSpans and checks
// the rules that writer keeps for every producer: each event has a known
// phase (M, X, i or C), non-negative ts and dur, and a pid whose
// process_name metadata came earlier. Checks of one producer's own rules
// (mtrace.CheckSpans) start from its result.
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

// EventSpans turns traced data-path events into trace spans. Hosts become
// processes and cores become threads (tid = core id). Span start/end
// pairs (SoftirqStart/End, ThreadStart/End) become complete slices named
// by their dominant Table-1 category; all other kinds become
// thread-scoped instants.
func EventSpans(events []trace.Event) []Span {
	// One pending span start per (host, core): cores execute work items
	// serially, so starts and ends of a core strictly alternate.
	type spanKey struct {
		host string
		core int
	}
	pending := make(map[spanKey]trace.Event)
	var spans []Span
	for _, e := range events {
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
			spans = append(spans, Span{
				Process: e.Host, Thread: e.Core,
				Name: cpumodel.Category(e.A).String(), Cat: ctxName,
				StartNS: int64(start.At), DurNS: int64(e.At - start.At),
				Args: map[string]any{"cycles": e.B},
			})
		default:
			spans = append(spans, Span{
				Process: e.Host, Thread: e.Core,
				Name: e.Kind, Cat: "flow", Instant: true,
				StartNS: int64(e.At),
				Args:    map[string]any{"flow": int64(e.Flow), "a": e.A, "b": e.B},
			})
		}
	}
	return spans
}

// Span is one trace entry for WriteChromeSpans: a complete duration slice,
// an instant or a counter sample on a named process/thread. Every trace
// producer (EventSpans, the message tracer's exemplars, the fabric
// observatory) builds Spans, so one run's producers concatenate into one
// trace.
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

// WriteChromeSpans renders spans as a Chrome trace-event JSON array,
// loadable directly in Perfetto or chrome://tracing, in input order. Each
// process gets a pid in first-appearance order and a process_name
// metadata event before its first span; each named (process, thread) a
// thread_name event before its first span. Writing no spans produces a
// valid empty trace.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	pids := make(map[string]int)
	named := make(map[[2]int]bool) // (pid, tid) pairs with thread_name emitted
	objs := []ChromeEvent{}
	for _, s := range spans {
		pid, ok := pids[s.Process]
		if !ok {
			pid = len(pids) + 1
			pids[s.Process] = pid
			objs = append(objs, ChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Process},
			})
		}
		if key := [2]int{pid, s.Thread}; s.ThreadName != "" && !named[key] {
			named[key] = true
			objs = append(objs, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: s.Thread,
				Args: map[string]any{"name": s.ThreadName},
			})
		}
		ev := ChromeEvent{Name: s.Name, Cat: s.Cat, Ts: usOf(s.StartNS), Pid: pid, Tid: s.Thread, Args: s.Args}
		switch {
		case s.Counter:
			ev.Ph = "C"
			if ev.Args == nil {
				ev.Args = map[string]any{"value": s.Value}
			}
		case s.Instant:
			ev.Ph, ev.S = "i", "t"
		default:
			ev.Ph, ev.Dur = "X", usOf(s.DurNS)
		}
		objs = append(objs, ev)
	}
	return json.NewEncoder(w).Encode(objs)
}
