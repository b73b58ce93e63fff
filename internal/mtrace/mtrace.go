// Package mtrace follows application messages — RPC requests, responses,
// fixed-size chunks of a bulk stream — end to end across every stage of
// the host data path: app enqueue → TCP segmentation and retransmission
// → NIC ring → wire → GRO → softirq → socket read. It extends the
// profiler's per-packet 8-stamp SKB lifecycle into message scope: a
// message spans many segments, retransmits and ACK-clocked waits, and
// its decomposition separates the send-buffer wait (sndbuf) from the
// retransmission wait (retx_wait) that per-packet stamps cannot see.
//
// Completed messages feed a fixed-bucket log-linear percentile engine
// and a tail-attribution report — for each percentile band (p50 / p90 /
// p99 / p999) the per-stage latency decomposition of just the messages
// in that band — plus a slowest-N exemplar store holding full span
// trees, exportable as Chrome trace JSON for Perfetto.
//
// Like every observability layer here, the tracer is a pure observer: a
// traced run follows the exact trajectory of an untraced one, and a nil
// *Tracer no-ops every hook, so the hot path pays only pointer tests
// when tracing is off.
package mtrace

import (
	"hostsim/internal/chunk"
	"hostsim/internal/metrics"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/stage"
	"hostsim/internal/tcp"
	"hostsim/internal/units"
)

// NumMsgStages is the number of telescoping per-message stage deltas
// (stage.Message without the trailing total).
const NumMsgStages = len(stage.Message) - 1

// Stage indices within Record.Stages (stage.Message order).
const (
	stageIdxRetxWait  = 1
	stageIdxSockQueue = 7
)

// Options configures a Tracer.
type Options struct {
	// MsgBytes is each traced flow's fixed message size, indexed by flow
	// id (ids are dense): message k of a flow is its byte range
	// [k*size, (k+1)*size). Flows without a positive entry are not traced.
	MsgBytes []units.Bytes
	// Start is, by flow id, the stream bytes the application had already
	// committed when the tracer attached (workload setup can run a first
	// write before observers exist). Messages wholly inside the
	// pre-attach prefix are skipped, keeping later message ids aligned
	// with the flow's TCP sequence space. It may be shorter than MsgBytes.
	Start []int64
	// Slowest bounds the exemplar span trees kept (0 = 8).
	Slowest int
}

// maxMessages caps the retained per-message records that back the band
// attribution. Messages beyond the cap still feed the quantile histogram
// and the exemplar store, and are counted in Truncated.
const maxMessages = 1 << 20

// txMark is one first-transmission record: all not-yet-marked sequence
// bytes below endSeq were first emitted by TCP at this time. Marks are
// appended in sequence order (sndNxt is monotone) and pruned as the
// receiver consumes the stream.
type txMark struct {
	endSeq int64
	at     sim.Time
}

// SegmentSpan is one TCP (re)transmission overlapping a message, kept
// for exemplar span trees.
type SegmentSpan struct {
	Seq     int64
	Len     units.Bytes
	At      sim.Time
	Retrans bool
}

// Recovery marks a loss-recovery probe event (fast-retransmit, rto,
// retransmit, recovery-exit) on a traced flow.
type Recovery struct {
	At   sim.Time
	Kind string
}

// message is one in-flight message of a flow. Completed messages go back
// to the tracer's free list, and their segs keep their capacity for reuse.
type message struct {
	id      int64
	writeAt sim.Time      // application wrote the message's first byte
	segs    []SegmentSpan // transmissions overlapping the message
}

// flowState is the tracer's per-flow bookkeeping.
type flowState struct {
	msgBytes int64
	writeEnd int64      // stream bytes the application has committed
	readNxt  int64      // stream bytes delivered in order to the reader
	nextID   int64      // next message id to create
	active   []*message // in-flight messages, ascending id
	firstTx  []txMark
	events   []Recovery
}

// Record is one completed message's stage decomposition: nanosecond
// deltas in stage.Message order (Stages[i] is stage.Message[i]), summing
// exactly to Total = read time − write time.
type Record struct {
	Flow   skb.FlowID
	ID     int64
	Done   sim.Time // the application read the message's last byte
	Total  int64
	Stages [NumMsgStages]int64
}

// Tracer is the per-message tracing engine. A nil Tracer is a valid
// no-op observer.
type Tracer struct {
	slowest   int
	maxRecs   int          // maxMessages; tests lower it
	flows     []*flowState // by flow id; nil = not traced
	recs      chunk.Log[Record]
	dropped   int64 // incomplete or non-monotonic stamp chains
	truncated int64 // completions beyond maxRecs
	hist      *metrics.LogLinear
	exem      []*Exemplar // min-heap on (Total, Done, Flow, ID)
	free      []*message  // completed messages, ready for reuse
}

// New builds a tracer for the given flows.
func New(o Options) *Tracer {
	t := &Tracer{
		slowest: o.Slowest,
		maxRecs: maxMessages,
		flows:   make([]*flowState, len(o.MsgBytes)),
		hist:    metrics.NewLogLinear(),
	}
	if t.slowest <= 0 {
		t.slowest = 8
	}
	for f, sz := range o.MsgBytes {
		if sz <= 0 {
			continue
		}
		fs := &flowState{msgBytes: int64(sz)}
		if f < len(o.Start) && o.Start[f] > 0 {
			off := o.Start[f]
			// Writes before attach were not observed: align the write
			// cursor with the TCP stream and start numbering at the first
			// message whose bytes are wholly post-attach.
			fs.writeEnd = off
			fs.nextID = (off + fs.msgBytes - 1) / fs.msgBytes
		}
		t.flows[f] = fs
	}
	return t
}

// flow returns the traced flow's state, nil when the flow is not traced.
func (t *Tracer) flow(id skb.FlowID) *flowState {
	if uint(id) < uint(len(t.flows)) {
		return t.flows[id]
	}
	return nil
}

// OnWrite observes one accepted application write of n stream bytes on
// flow at the given time, creating the messages whose first byte it
// carries. Call before TCP gets the bytes, so segments emitted inside
// the same send can attach to their message.
func (t *Tracer) OnWrite(flow skb.FlowID, n int64, at sim.Time) {
	if t == nil || n <= 0 {
		return
	}
	fs := t.flow(flow)
	if fs == nil {
		return
	}
	fs.writeEnd += n
	for fs.nextID*fs.msgBytes < fs.writeEnd {
		fs.active = append(fs.active, t.newMessage(fs.nextID, at))
		fs.nextID++
	}
}

// newMessage takes a message from the free list, or allocates one when
// the list is empty.
func (t *Tracer) newMessage(id int64, at sim.Time) *message {
	n := len(t.free)
	if n == 0 {
		return &message{id: id, writeAt: at}
	}
	m := t.free[n-1]
	t.free = t.free[:n-1]
	*m = message{id: id, writeAt: at, segs: m.segs[:0]}
	return m
}

// trimFront drops the first n entries of s by sliding the rest down, so
// the slice keeps its backing array and later appends reuse it.
func trimFront[T any](s []T, n int) []T {
	k := copy(s, s[n:])
	clear(s[k:])
	return s[:k]
}

// OnSegment observes TCP emitting [seq, seq+length) on flow. First
// transmissions extend the flow's first-tx log (TCP sends new data in
// sequence order, so the log stays sorted); all transmissions attach to
// the in-flight messages they overlap for exemplar detail.
func (t *Tracer) OnSegment(flow skb.FlowID, seq int64, length units.Bytes, retrans bool, at sim.Time) {
	if t == nil || length <= 0 {
		return
	}
	fs := t.flow(flow)
	if fs == nil {
		return
	}
	endSeq := seq + int64(length)
	if !retrans {
		fs.firstTx = append(fs.firstTx, txMark{endSeq: endSeq, at: at})
	}
	for _, m := range fs.active {
		if (m.id+1)*fs.msgBytes <= seq {
			continue
		}
		if m.id*fs.msgBytes >= endSeq {
			break
		}
		m.segs = append(m.segs, SegmentSpan{Seq: seq, Len: length, At: at, Retrans: retrans})
	}
}

// OnDeliver observes the application reading one in-order data SKB at
// readAt, completing every message whose last byte it (or a predecessor)
// carried. The SKB is only read — callers recycle it afterwards.
func (t *Tracer) OnDeliver(s *skb.SKB, readAt sim.Time) {
	if t == nil {
		return
	}
	fs := t.flow(s.Flow)
	if fs == nil || s.Ack != nil || s.Len == 0 {
		return
	}
	end := s.End()
	if end <= fs.readNxt {
		return
	}
	fs.readNxt = end
	// Drop consumed first-tx marks: later deliveries start at or beyond
	// this SKB's first byte, so marks wholly below it are dead.
	i := 0
	for i < len(fs.firstTx) && fs.firstTx[i].endSeq <= s.Seq {
		i++
	}
	if i > 0 {
		fs.firstTx = trimFront(fs.firstTx, i)
	}
	done := 0
	for _, m := range fs.active {
		if (m.id+1)*fs.msgBytes > end {
			break
		}
		t.complete(fs, m, s, readAt)
		t.free = append(t.free, m)
		done++
	}
	if done > 0 {
		fs.active = trimFront(fs.active, done)
	}
	// Recovery events older than every in-flight message can no longer
	// appear on an exemplar; prune them.
	cut := readAt
	if len(fs.active) > 0 {
		cut = fs.active[0].writeAt
	}
	j := 0
	for j < len(fs.events) && fs.events[j].At < cut {
		j++
	}
	if j > 0 {
		fs.events = trimFront(fs.events, j)
	}
}

// firstTxAt returns when the byte at seq was first emitted by TCP (zero
// if the mark is gone — pre-attach traffic).
func (fs *flowState) firstTxAt(seq int64) sim.Time {
	lo, hi := 0, len(fs.firstTx)
	for lo < hi {
		mid := (lo + hi) / 2
		if fs.firstTx[mid].endSeq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(fs.firstTx) {
		return 0
	}
	return fs.firstTx[lo].at
}

// complete folds one finished message into the report state. The stamp
// chain is the completing SKB's (the one delivering the message's last
// byte): write → first tx → tx of the arriving copy → NIC → wire → NAPI
// → GRO → TCP Rx → read. Chains with missing or non-monotonic stamps
// (pre-attach traffic, or a GRO aggregate straddling a write boundary)
// are dropped whole, keeping the telescoping sum exact for every record.
func (t *Tracer) complete(fs *flowState, m *message, s *skb.SKB, readAt sim.Time) {
	ts := [NumMsgStages + 1]sim.Time{
		m.writeAt, fs.firstTxAt(s.Seq), s.TCPTxAt, s.NICTxAt,
		s.WireAt, s.Born, s.GROAt, s.TCPRxAt, readAt,
	}
	for i, v := range ts {
		if v == 0 || (i > 0 && v < ts[i-1]) {
			t.dropped++
			return
		}
	}
	rec := Record{Flow: s.Flow, ID: m.id, Done: readAt, Total: int64(readAt - m.writeAt)}
	for i := 0; i < NumMsgStages; i++ {
		rec.Stages[i] = int64(ts[i+1] - ts[i])
	}
	// A retransmission delays a message even when the completing SKB
	// itself was never retransmitted: a tail segment that arrived early
	// sits in the receiver's out-of-order queue until the lost hole is
	// refilled, which the raw chain books under sock_queue. The hole
	// provably persisted until the last overlapping retransmission left
	// TCP, so move that much dwell (clamped to the sock_queue share) into
	// retx_wait. The shift preserves the exact telescoping sum.
	var lastRetx sim.Time
	for _, sp := range m.segs {
		if sp.Retrans && sp.At > lastRetx {
			lastRetx = sp.At
		}
	}
	if lastRetx > ts[7] { // ts[7] = completing SKB's TCP Rx time
		shift := int64(lastRetx - ts[7])
		if shift > rec.Stages[stageIdxSockQueue] {
			shift = rec.Stages[stageIdxSockQueue]
		}
		rec.Stages[stageIdxSockQueue] -= shift
		rec.Stages[stageIdxRetxWait] += shift
	}
	t.hist.Record(rec.Total)
	if t.recs.Len() < t.maxRecs {
		t.recs.Append(rec)
	} else {
		t.truncated++
	}
	t.offerExemplar(rec, m, fs)
}

// ProbeHook returns a tcp_probe observer that annotates exemplar span
// trees with loss-recovery events. Install with Conn.AddProbe so it
// composes with the inspector's own probe consumers.
func (t *Tracer) ProbeHook() tcp.ProbeFunc {
	if t == nil {
		return nil
	}
	return func(ev tcp.ProbeEvent) {
		fs := t.flow(ev.Flow)
		if fs == nil {
			return
		}
		switch ev.Kind {
		case tcp.ProbeFastRetransmit, tcp.ProbeRetransmit, tcp.ProbeRTO, tcp.ProbeRecoveryExit:
			fs.events = append(fs.events, Recovery{At: ev.At, Kind: ev.Kind.String()})
		}
	}
}

// Records returns the retained per-message records, completion order.
// The first call after more than one chunk filled flattens them into one
// slice, which becomes the tracer's backing store: treat it as read-only.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return t.recs.Flatten()
}
