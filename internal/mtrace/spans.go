package mtrace

import (
	"fmt"
	"time"

	"hostsim/internal/stage"
	"hostsim/internal/telemetry"
)

// Spans renders the exemplar span trees as reusable trace spans, slowest
// message first. Each exemplar becomes one Perfetto process with three
// threads: the end-to-end message span, the telescoping stage slices,
// and the segment/recovery instants. Stage slices carry their exact
// nanosecond duration in args ("ns"), so CheckSpans can verify the
// telescoping invariant without microsecond rounding noise.
func (t *Tracer) Spans() []telemetry.Span {
	if t == nil {
		return nil
	}
	var spans []telemetry.Span
	for rank, e := range t.Exemplars() {
		proc := fmt.Sprintf("slow%02d flow%03d msg%06d (%v)",
			rank+1, e.Flow, e.ID, time.Duration(e.Total))
		spans = append(spans, telemetry.Span{
			Process: proc, Thread: 0, ThreadName: "message",
			Name: stage.Total.String(), Cat: "message",
			StartNS: int64(e.WriteAt), DurNS: e.Total,
			Args: map[string]any{"ns": e.Total, "flow": int64(e.Flow), "msg": e.ID},
		})
		cur := int64(e.WriteAt)
		for i, d := range e.Stages {
			spans = append(spans, telemetry.Span{
				Process: proc, Thread: 1, ThreadName: "stages",
				Name: stage.Message[i].String(), Cat: "stage",
				StartNS: cur, DurNS: d,
				Args: map[string]any{"ns": d},
			})
			cur += d
		}
		for _, sg := range e.Segs {
			name := "tx"
			if sg.Retrans {
				name = "retx"
			}
			spans = append(spans, telemetry.Span{
				Process: proc, Thread: 2, ThreadName: "segments",
				Name: name, Cat: "segment", Instant: true,
				StartNS: int64(sg.At),
				Args:    map[string]any{"seq": sg.Seq, "len": int64(sg.Len)},
			})
		}
		for _, ev := range e.Events {
			spans = append(spans, telemetry.Span{
				Process: proc, Thread: 2, ThreadName: "segments",
				Name: ev.Kind, Cat: "recovery", Instant: true,
				StartNS: int64(ev.At),
			})
		}
	}
	return spans
}

// CheckSpans checks a trace that carries Spans' exemplars, alone or
// beside other producers' tracks. It starts from the generic trace-event
// rules (telemetry.ReadChromeTrace) and then checks each process that has
// message or stage slices. Every such slice names a known stage and
// carries a non-negative args.ns. The process has one total message span
// on tid 0 and NumMsgStages stage slices on tid 1, and the stage slices
// sum exactly to the total. Other slices, such as the data-path and
// fabric tracks of the same trace, need only the generic rules.
func CheckSpans(data []byte) (string, error) {
	evs, err := telemetry.ReadChromeTrace(data)
	if err != nil {
		return "", err
	}
	type exemplar struct {
		pid                 int
		total, sum          int64
		totals, stageSlices int
	}
	var exs []*exemplar
	byPid := make(map[int]*exemplar)
	for i, e := range evs {
		if e.Ph != "X" || (e.Cat != "message" && e.Cat != "stage") {
			continue
		}
		s, known := stage.Parse(e.Name)
		ns, isNum := e.Args["ns"].(float64)
		switch {
		case !known:
			return "", fmt.Errorf("mtrace: event %d: slice %q is not a known stage", i, e.Name)
		case !isNum || ns < 0:
			return "", fmt.Errorf("mtrace: event %d (%q): args.ns %v is not a non-negative number", i, e.Name, e.Args["ns"])
		}
		ex := byPid[e.Pid]
		if ex == nil {
			ex = &exemplar{pid: e.Pid}
			byPid[e.Pid] = ex
			exs = append(exs, ex)
		}
		switch {
		case e.Cat == "message" && e.Tid == 0 && s == stage.Total:
			ex.total, ex.totals = int64(ns), ex.totals+1
		case e.Cat == "stage" && e.Tid == 1 && s != stage.Total:
			ex.sum, ex.stageSlices = ex.sum+int64(ns), ex.stageSlices+1
		default:
			return "", fmt.Errorf("mtrace: event %d (%q): %s slice on tid %d", i, e.Name, e.Cat, e.Tid)
		}
	}
	for _, ex := range exs {
		switch {
		case ex.totals != 1:
			return "", fmt.Errorf("mtrace: pid %d: %d total message spans, want 1", ex.pid, ex.totals)
		case ex.stageSlices != NumMsgStages:
			return "", fmt.Errorf("mtrace: pid %d: %d stage slices, want %d", ex.pid, ex.stageSlices, NumMsgStages)
		case ex.sum != ex.total:
			return "", fmt.Errorf("mtrace: pid %d: stage slices sum to %dns, total span is %dns", ex.pid, ex.sum, ex.total)
		}
	}
	return fmt.Sprintf("%d events; %d message exemplars, each telescoping exactly", len(evs), len(exs)), nil
}
