package mtrace

import (
	"sort"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
)

// Exemplar is one slow message's full span tree: the stage decomposition
// plus every overlapping transmission and loss-recovery event, enough to
// render the message in Perfetto and see exactly why it was slow.
type Exemplar struct {
	Flow    skb.FlowID
	ID      int64
	WriteAt sim.Time
	Done    sim.Time
	Total   int64
	Stages  [NumMsgStages]int64
	Segs    []SegmentSpan
	Events  []Recovery // recovery marks within [WriteAt, Done]
}

// slower orders exemplars by (Total, Done, Flow, ID) — a total order, so
// the slowest-N set is deterministic even under latency ties.
func slower(a, b *Exemplar) bool {
	if a.Total != b.Total {
		return a.Total > b.Total
	}
	if a.Done != b.Done {
		return a.Done > b.Done
	}
	if a.Flow != b.Flow {
		return a.Flow > b.Flow
	}
	return a.ID > b.ID
}

// offerExemplar admits a completed message into the slowest-N min-heap
// (t.exem[0] is the fastest retained exemplar). Admission is decided on
// the ordering key before anything is built, so a message that is not
// slower than the fastest of a full heap costs no allocation. An admitted
// exemplar copies its segments: m goes back to the free list.
func (t *Tracer) offerExemplar(rec Record, m *message, fs *flowState) {
	key := Exemplar{Flow: rec.Flow, ID: rec.ID, Done: rec.Done, Total: rec.Total}
	full := len(t.exem) == t.slowest
	if full && !slower(&key, t.exem[0]) {
		return
	}
	e := &Exemplar{
		Flow: rec.Flow, ID: rec.ID, WriteAt: m.writeAt, Done: rec.Done,
		Total: rec.Total, Stages: rec.Stages,
		Segs: append([]SegmentSpan(nil), m.segs...),
	}
	for _, ev := range fs.events {
		if ev.At >= e.WriteAt && ev.At <= e.Done {
			e.Events = append(e.Events, ev)
		}
	}
	if !full {
		t.exem = append(t.exem, e)
		for i := len(t.exem) - 1; i > 0; {
			parent := (i - 1) / 2
			if !slower(t.exem[parent], t.exem[i]) {
				break
			}
			t.exem[parent], t.exem[i] = t.exem[i], t.exem[parent]
			i = parent
		}
		return
	}
	t.exem[0] = e
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.exem) && slower(t.exem[min], t.exem[l]) {
			min = l
		}
		if r < len(t.exem) && slower(t.exem[min], t.exem[r]) {
			min = r
		}
		if min == i {
			break
		}
		t.exem[i], t.exem[min] = t.exem[min], t.exem[i]
		i = min
	}
}

// Exemplars returns the retained slowest messages, slowest first.
func (t *Tracer) Exemplars() []*Exemplar {
	if t == nil {
		return nil
	}
	out := append([]*Exemplar(nil), t.exem...)
	sort.Slice(out, func(i, j int) bool { return slower(out[i], out[j]) })
	return out
}
