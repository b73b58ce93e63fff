// Package tcp implements the simulated TCP engine: byte-stream
// connections with congestion control (CUBIC, DCTCP, BBR), flow control
// with Linux-style receive-buffer autotuning, delayed and duplicate ACKs,
// SACK-based fast retransmission, retransmission timeouts, zero-window
// probing, and BBR pacing.
//
// The package is deliberately free of CPU-cost policy beyond protocol
// work: the host (internal/core) supplies Hooks that transmit segments,
// charge the transmit path, and react to socket events, so the same
// protocol engine runs under every stack configuration the paper studies.
package tcp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/fifo"
	"hostsim/internal/mem"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// Config parameterises one connection endpoint.
type Config struct {
	MSS          units.Bytes // wire segment payload limit
	SegmentBytes units.Bytes // tx skb size: 64KB under TSO/GSO, MSS otherwise
	SndBuf       units.Bytes // send buffer bound
	RcvBuf       units.Bytes // initial receive buffer
	RcvBufMax    units.Bytes // autotune cap; 0 = RcvBuf is fixed
	// TSQBytes bounds the connection's unsent-to-wire bytes in the
	// qdisc/NIC (TCP Small Queues); 0 = 256KB. The host reports wire
	// departures via TxCompleted.
	TSQBytes units.Bytes
}

// DefaultConfig mirrors Linux defaults on the paper's testbed (tcp_rmem
// max 6MB, 64KB TSO aggregates, CUBIC handled by the CC factory).
func DefaultConfig(mss units.Bytes) Config {
	return Config{
		MSS:          mss,
		SegmentBytes: 64 * units.KB,
		SndBuf:       4 * units.MB,
		RcvBuf:       128 * units.KB,
		RcvBufMax:    6 * units.MB,
	}
}

// Timer and window constants of every connection (Linux's, scaled to the
// testbed's microsecond RTTs). The initial congestion window is 10 MSS
// and a receiver acks at least every 2 MSS of delivered bytes.
const (
	minRTO      = 10 * time.Millisecond  // retransmission timeout floor
	persistTime = 5 * time.Millisecond   // zero-window probe interval
	delAckTime  = 500 * time.Microsecond // trailing-edge delayed-ack timer
)

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MSS <= 0:
		return fmt.Errorf("tcp: MSS = %d", c.MSS)
	case c.SegmentBytes < c.MSS:
		return fmt.Errorf("tcp: SegmentBytes %d < MSS %d", c.SegmentBytes, c.MSS)
	case c.SndBuf < c.SegmentBytes:
		return fmt.Errorf("tcp: SndBuf %d < SegmentBytes", c.SndBuf)
	case c.RcvBuf <= 0:
		return fmt.Errorf("tcp: RcvBuf = %d", c.RcvBuf)
	}
	return nil
}

// Hooks connects a Conn to its host. The host's socket implements it, so a
// connection reaches its host through one interface value, the way a
// kernel socket reaches its device through shared ops tables rather than
// per-socket closures.
type Hooks interface {
	// SendSegment transmits [seq, seq+len) of the connection's tx flow,
	// charging the tx data path to ctx. retrans marks retransmissions.
	SendSegment(ctx *exec.Ctx, c *Conn, seq int64, length units.Bytes, retrans bool)
	// SendAck emits a pure ACK on the reverse path.
	SendAck(ctx *exec.Ctx, c *Conn, info *skb.AckInfo)
	// SendProbe emits a zero-length window probe.
	SendProbe(ctx *exec.Ctx, c *Conn)
	// Softirq runs fn in softirq context on the connection's core
	// (timer handlers: RTO, persist, delayed ACK, pacer).
	Softirq(fn func(*exec.Ctx))
	// OnReadable fires when new in-order data enters the receive queue.
	OnReadable(ctx *exec.Ctx, c *Conn)
	// OnWritable fires when send-buffer space opens.
	OnWritable(ctx *exec.Ctx, c *Conn)
	// OnAckedPages releases the sender-side pages backing acked bytes.
	OnAckedPages(ctx *exec.Ctx, c *Conn, pages []mem.Page)
	// Recycle receives skbs the connection has fully consumed (pure ACKs,
	// probes, duplicates) so the host can return them to its receive-path
	// pool.
	Recycle(s *skb.SKB)
	// NewAck supplies the AckInfo record of each outgoing ACK (typically
	// from a pool shared with the peer, where the records die).
	NewAck() *skb.AckInfo
}

// Stats tracks a connection's protocol activity.
type Stats struct {
	SentBytes      units.Bytes // first transmissions
	RetransBytes   units.Bytes
	Retransmits    int64
	FastRetransmit int64
	Timeouts       int64
	AcksSent       int64
	DupAcksSent    int64
	AcksReceived   int64
	DupAcksRecv    int64
	DeliveredBytes units.Bytes // handed to the application in order
	OOOSegments    int64
	Probes         int64
}

type sentChunk struct {
	endSeq int64
	pages  []mem.Page
	at     sim.Time // when the application wrote the chunk
}

// Conn is one endpoint of a TCP connection: transmit state for its
// outgoing flow and receive state for the incoming flow.
type Conn struct {
	eng   *sim.Engine
	costs *cpumodel.Costs
	cfg   Config
	hooks Hooks
	cc    CongestionControl
	flow  skb.FlowID // the flow this endpoint transmits

	initCwnd units.Bytes // 10 MSS; the congestion controllers start from it

	// ---- transmit state.
	sndUna        int64
	sndNxt        int64
	appLimit      int64                // bytes the application has committed to the stream
	rightEdge     int64                // sndUna + peer window (flow-control limit)
	chunks        fifo.Ring[sentChunk] // unacked application writes, oldest first
	sacked        []skb.Range
	retxNext      int64 // next hole byte to retransmit within recovery
	dupAcks       int
	inRecovery    bool
	recoveryEnd   int64
	recoveryStall int // acks in recovery without cumulative progress
	rtoTimer      sim.Timer
	persistTimer  sim.Timer
	srtt, rttvar  time.Duration
	rttSeq        int64 // segment end whose ack yields the next RTT sample
	rttSentAt     sim.Time
	pacer         pacerState
	inQdisc       units.Bytes // bytes handed to the qdisc/NIC, not yet on the wire

	// ---- receive state.
	rcvNxt      int64
	rcvBuf      units.Bytes
	ooo         []*skb.SKB // sorted by Seq, non-overlapping
	oooBytes    units.Bytes
	recvQ       fifo.Ring[*skb.SKB] // in-order skbs the application has not read
	recvQBytes  units.Bytes
	unacked     units.Bytes // delivered bytes since last ack
	lastAdvWnd  units.Bytes
	ecnPending  bool // CE seen since last ack (DCTCP echo)
	delAckTimer sim.Timer
	peerWnd     units.Bytes // last window seen from the peer (dup-ack test)
	tuneAcc     units.Bytes // delivered bytes since the last DRS mark
	quickAcks   int         // remaining immediate acks (quickack mode)
	wndClamp    units.Bytes // receiver scheduler clamp; -1 = none

	stats Stats
	probe ProbeFunc // nil = congestion tracing off

	// Timer softirq bodies, each bound to the connection the first time
	// its timer fires: the timers themselves schedule package-level
	// functions with the connection as their argument, so arming one never
	// allocates, and a connection whose timer never fires never binds it.
	rtoBody, persistBody, delAckBody, pacerBody func(*exec.Ctx)

	// Hot-path scratch, reused across calls: each slice starts on the
	// inline array beside it, so its first growth steps allocate nothing.
	freed     []mem.Page   // releaseAcked scratch
	slabFree  [][]mem.Page // released chunk page slabs, for PageSlab
	slabBlock []mem.Page   // unused tail of the block fresh slabs are cut from
	slabCut   int          // pages cut into fresh slabs so far; sizes the next block
	readOut   []*skb.SKB   // Read result scratch; valid until the next Read

	freedBuf    [freedInline]mem.Page
	slabFreeBuf [slabFreeInline][]mem.Page
	readOutBuf  [readOutInline]*skb.SKB
}

// The lengths of the scratch slices' inline arrays: most acks release at
// most freedInline pages, hold at most slabFreeInline released slabs
// before the next write takes one back, and most reads take at most
// readOutInline skbs.
const (
	freedInline    = 16
	slabFreeInline = 8
	readOutInline  = 4
)

// Init initialises the zero Conn c in place as a connection endpoint for
// flow, transmitting via hooks and governed by cc. The host holds the
// connection inside its own socket object, so the two are one allocation.
// c must not be copied afterwards: its scratch slices point into it.
func Init(c *Conn, eng *sim.Engine, costs *cpumodel.Costs, cfg Config, flow skb.FlowID,
	cc CongestionControl, hooks Hooks) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if eng == nil || costs == nil || cc == nil {
		panic("tcp: nil dependency")
	}
	if hooks == nil {
		panic("tcp: nil hooks")
	}
	if cfg.TSQBytes == 0 {
		cfg.TSQBytes = 256 * units.KB
	}
	c.eng, c.costs, c.cfg, c.hooks, c.cc, c.flow = eng, costs, cfg, hooks, cc, flow
	c.initCwnd = 10 * cfg.MSS
	c.rcvBuf = cfg.RcvBuf
	c.rightEdge = int64(cfg.RcvBuf) // peer starts with its initial window
	c.lastAdvWnd = cfg.RcvBuf
	c.wndClamp = -1
	c.freed = c.freedBuf[:0]
	c.slabFree = c.slabFreeBuf[:0]
	c.readOut = c.readOutBuf[:0]
	cc.Init(c)
}

// Flow returns the transmit-direction flow id.
func (c *Conn) Flow() skb.FlowID { return c.flow }

// Stats returns a copy of the counters.
func (c *Conn) Stats() Stats { return c.stats }

// CC returns the congestion controller (inspection).
func (c *Conn) CC() CongestionControl { return c.cc }

// SRTT returns the smoothed RTT estimate (0 until the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// RcvBuf returns the current receive buffer size (autotuned or fixed).
func (c *Conn) RcvBuf() units.Bytes { return c.rcvBuf }

// SndUna returns the lowest unacknowledged sequence number.
func (c *Conn) SndUna() int64 { return c.sndUna }

// SndNxt returns the next sequence number to transmit.
func (c *Conn) SndNxt() int64 { return c.sndNxt }

// AppLimit returns the bytes the application has committed to the stream.
func (c *Conn) AppLimit() int64 { return c.appLimit }

// RcvNxt returns the next expected receive sequence number.
func (c *Conn) RcvNxt() int64 { return c.rcvNxt }

// RecvQLen returns the number of skbs queued for the application.
func (c *Conn) RecvQLen() int { return c.recvQ.Len() }

// OOOLen returns the number of out-of-order skbs held.
func (c *Conn) OOOLen() int { return len(c.ooo) }

// CheckInvariants audits the connection's sequence-space bookkeeping,
// reporting each violation through fail. It performs no protocol actions
// and mutates nothing, so it is safe to call between simulation events.
func (c *Conn) CheckInvariants(fail func(format string, args ...any)) {
	if c.sndUna < 0 || c.sndUna > c.sndNxt || c.sndNxt > c.appLimit {
		fail("tcp flow %d: sequence order broken: sndUna %d, sndNxt %d, appLimit %d",
			c.flow, c.sndUna, c.sndNxt, c.appLimit)
	}
	if c.sndNxt > c.rightEdge {
		fail("tcp flow %d: sndNxt %d beyond peer window edge %d", c.flow, c.sndNxt, c.rightEdge)
	}
	if c.inQdisc < 0 {
		fail("tcp flow %d: negative qdisc occupancy %d", c.flow, c.inQdisc)
	}
	if int64(c.stats.DeliveredBytes) != c.rcvNxt {
		fail("tcp flow %d: DeliveredBytes %d != rcvNxt %d (in-order delivery must advance both together)",
			c.flow, c.stats.DeliveredBytes, c.rcvNxt)
	}
	var rq units.Bytes
	for i := 0; i < c.recvQ.Len(); i++ {
		rq += (*c.recvQ.At(i)).Len
	}
	if rq != c.recvQBytes {
		fail("tcp flow %d: recvQBytes %d but queue holds %d", c.flow, c.recvQBytes, rq)
	}
	var ob units.Bytes
	prev := c.rcvNxt
	for i, s := range c.ooo {
		ob += s.Len
		if s.Seq <= prev {
			fail("tcp flow %d: ooo[%d] seq %d not ascending above rcvNxt %d (prev %d)",
				c.flow, i, s.Seq, c.rcvNxt, prev)
		}
		prev = s.Seq
	}
	if ob != c.oooBytes {
		fail("tcp flow %d: oooBytes %d but queue holds %d", c.flow, c.oooBytes, ob)
	}
	if c.chunks.Len() == 0 {
		if c.appLimit != c.sndUna {
			fail("tcp flow %d: no send chunks but appLimit %d != sndUna %d",
				c.flow, c.appLimit, c.sndUna)
		}
	} else {
		if first := c.chunks.Front().endSeq; first <= c.sndUna {
			fail("tcp flow %d: acked chunk (end %d <= sndUna %d) not released",
				c.flow, first, c.sndUna)
		}
		prevEnd := int64(-1)
		for i := 0; i < c.chunks.Len(); i++ {
			ch := c.chunks.At(i)
			if ch.endSeq <= prevEnd {
				fail("tcp flow %d: chunk[%d] end %d not ascending (prev %d)",
					c.flow, i, ch.endSeq, prevEnd)
			}
			prevEnd = ch.endSeq
		}
		if last := c.chunks.Back().endSeq; last != c.appLimit {
			fail("tcp flow %d: last chunk end %d != appLimit %d", c.flow, last, c.appLimit)
		}
	}
	prevEnd := c.sndUna
	for i, r := range c.sacked {
		if r.Start < prevEnd || r.End <= r.Start || r.End > c.sndNxt {
			fail("tcp flow %d: sacked[%d] [%d,%d) not disjoint-ascending within [sndUna %d, sndNxt %d]",
				c.flow, i, r.Start, r.End, c.sndUna, c.sndNxt)
		}
		prevEnd = r.End
	}
}

// ---------------------------------------------------------------------------
// Transmit path.

// SndBufFree returns how many bytes the application may append.
func (c *Conn) SndBufFree() units.Bytes {
	used := units.Bytes(c.appLimit - c.sndUna)
	if used >= c.cfg.SndBuf {
		return 0
	}
	return c.cfg.SndBuf - used
}

// SendData appends n stream bytes backed by pages (already copied into
// kernel memory by the caller) and pushes what the windows allow. n must
// not exceed SndBufFree.
func (c *Conn) SendData(ctx *exec.Ctx, n units.Bytes, pages []mem.Page) {
	if n <= 0 {
		panic("tcp: SendData of non-positive length")
	}
	if n > c.SndBufFree() {
		panic("tcp: SendData beyond free send buffer")
	}
	c.appLimit += int64(n)
	c.chunks.Push(sentChunk{endSeq: c.appLimit, pages: pages, at: ctx.Now()})
	c.pump(ctx)
}

// WriteTimeOf returns the application-write timestamp of the chunk
// containing seq, or zero when the chunk has already been released (acked)
// or never existed. Used by the profiler's lifecycle tracker to stamp
// outgoing frames; chunks live until cumulatively acked, so any sequence
// being (re)transmitted still has its chunk.
func (c *Conn) WriteTimeOf(seq int64) sim.Time {
	for i := 0; i < c.chunks.Len(); i++ {
		if ch := c.chunks.At(i); ch.endSeq > seq {
			return ch.at
		}
	}
	return 0
}

// InFlight returns unacked-and-unsacked bytes in the pipe.
func (c *Conn) InFlight() units.Bytes {
	var sackedBytes int64
	for _, r := range c.sacked {
		sackedBytes += r.Len()
	}
	return units.Bytes(c.sndNxt - c.sndUna - sackedBytes)
}

// pump transmits new data while the congestion and flow-control windows
// allow. Under pacing, segments are released by the pacer timer instead.
func (c *Conn) pump(ctx *exec.Ctx) {
	if c.pacer.active(c) {
		c.pacer.pump(ctx, c)
		return
	}
	for c.canSendNext() {
		c.sendNext(ctx)
	}
	c.maybePersist()
}

func (c *Conn) canSendNext() bool {
	if c.sndNxt >= c.appLimit {
		return false
	}
	if c.sndNxt >= c.rightEdge {
		return false // peer window exhausted
	}
	if c.inQdisc >= c.cfg.TSQBytes {
		return false // TCP small queues: qdisc already holds enough
	}
	return c.InFlight() < c.cc.Cwnd()
}

// TxCompleted reports that bytes of this connection left the host on the
// wire; TSQ budget reopens and sending resumes. Called from softirq
// context (Tx completion processing).
func (c *Conn) TxCompleted(ctx *exec.Ctx, bytes units.Bytes) {
	c.inQdisc -= bytes
	if c.inQdisc < 0 {
		c.inQdisc = 0
	}
	c.pump(ctx)
}

// InQdisc returns the bytes queued toward the NIC (tests).
func (c *Conn) InQdisc() units.Bytes { return c.inQdisc }

// sendNext transmits one segment of new data and returns its length.
func (c *Conn) sendNext(ctx *exec.Ctx) units.Bytes {
	length := units.Bytes(c.appLimit - c.sndNxt)
	if length > c.cfg.SegmentBytes {
		length = c.cfg.SegmentBytes
	}
	if avail := units.Bytes(c.rightEdge - c.sndNxt); length > avail {
		length = avail
	}
	seq := c.sndNxt
	c.sndNxt += int64(length)
	c.stats.SentBytes += length
	c.inQdisc += length
	if c.rttSeq <= c.sndUna { // arm a fresh RTT sample
		c.rttSeq = c.sndNxt
		c.rttSentAt = ctx.Now()
	}
	c.hooks.SendSegment(ctx, c, seq, length, false)
	c.armRTO()
	return length
}

// OnSegment processes an arriving skb for this endpoint: pure ACKs feed
// the transmit state, data feeds the receive state. Zero-length non-ACK
// skbs are window probes.
func (c *Conn) OnSegment(ctx *exec.Ctx, s *skb.SKB) {
	switch {
	case s.Ack != nil:
		c.onAck(ctx, s.Ack)
		c.hooks.Recycle(s)
	case s.Len == 0:
		c.stats.Probes++
		ctx.Charge(cpumodel.TCPIP, c.costs.TCPRxPerSKB/2)
		c.sendAck(ctx, false)
		c.hooks.Recycle(s)
	default:
		c.onData(ctx, s)
	}
}

func (c *Conn) onAck(ctx *exec.Ctx, a *skb.AckInfo) {
	costs := c.costs
	ctx.Charge(cpumodel.TCPIP, costs.ACKProcess)
	ctx.Charge(cpumodel.TCPIP, costs.CCUpdate)
	c.stats.AcksReceived++

	if edge := a.Cum + int64(a.Window); edge > c.rightEdge {
		c.rightEdge = edge
	}
	windowChanged := a.Window != c.peerWnd
	c.peerWnd = a.Window
	newlyAcked := a.Cum - c.sndUna
	if newlyAcked < 0 {
		newlyAcked = 0
	}

	if a.Cum > c.sndUna {
		c.sndUna = a.Cum
		c.dupAcks = 0
		c.recoveryStall = 0
		c.releaseAcked(ctx)
		// RTT sample (Karn's rule is approximated by sampling only the
		// armed sequence, which is never re-armed across retransmission).
		if c.rttSeq > 0 && a.Cum >= c.rttSeq {
			c.rttSample(time.Duration(ctx.Now() - c.rttSentAt))
			c.rttSeq = 0
		}
		c.trimSacked()
		if c.inRecovery && c.sndUna >= c.recoveryEnd {
			c.inRecovery = false
			c.cc.OnRecoveryExit()
			c.emitProbe(ctx.Now(), ProbeRecoveryExit, 0)
		}
		c.armRTO()
	} else if c.sndNxt > c.sndUna && (len(a.SACK) > 0 || !windowChanged) {
		// Classic duplicate-ACK test: no cum advance, outstanding data,
		// and either SACK evidence or an unchanged window (pure window
		// updates are not congestion signals).
		c.dupAcks++
		c.stats.DupAcksRecv++
		ctx.Charge(cpumodel.TCPIP, costs.DupACKExtra)
	}
	c.mergeSACK(a.SACK)

	c.cc.OnAck(ctx, units.Bytes(newlyAcked), c.srtt, a.ECNEcho)

	if !c.inRecovery && (c.dupAcks >= 3 || c.sackedBeyond(3*int64(c.cfg.MSS))) {
		c.enterRecovery(ctx)
	}
	if c.inRecovery {
		// RACK-style re-probe: if acks keep arriving without cumulative
		// progress, the earlier retransmission itself was probably lost —
		// rewind and resend the first hole instead of stalling to RTO.
		if newlyAcked == 0 {
			c.recoveryStall++
			if c.recoveryStall >= 8 {
				c.recoveryStall = 0
				c.retxNext = c.sndUna
			}
		}
		c.retransmitHoles(ctx)
	}
	c.pump(ctx)
	if newlyAcked > 0 {
		c.hooks.OnWritable(ctx, c)
	}
	c.emitProbe(ctx.Now(), ProbeAck, units.Bytes(newlyAcked))
}

// releaseAcked frees page chunks fully below sndUna. The released chunks'
// page slabs are kept for PageSlab, so the Write -> ack -> Write cycle
// recycles its slices instead of allocating fresh ones.
func (c *Conn) releaseAcked(ctx *exec.Ctx) {
	freed := c.freed[:0]
	for c.chunks.Len() > 0 && c.chunks.Front().endSeq <= c.sndUna {
		ch := c.chunks.Pop()
		freed = append(freed, ch.pages...)
		if cap(ch.pages) > 0 {
			c.slabFree = append(c.slabFree, ch.pages[:0])
		}
	}
	if len(freed) > 0 {
		c.hooks.OnAckedPages(ctx, c, freed)
	}
	c.freed = freed[:0]
}

// PageSlab returns a zero-length page slice with room for n pages. Callers
// append the pages backing their next SendData into it; the slab returns
// here once those bytes are acknowledged. The last released slab is reused
// when it holds n pages and dropped when it does not. A fresh slab is cut
// from a block shared with the connection's other fresh slabs, with
// capacity exactly n, so appending past it reallocates instead of writing
// into the next slab.
func (c *Conn) PageSlab(n int) []mem.Page {
	if k := len(c.slabFree); k > 0 {
		s := c.slabFree[k-1]
		c.slabFree[k-1] = nil
		c.slabFree = c.slabFree[:k-1]
		if cap(s) >= n {
			return s
		}
	}
	if len(c.slabBlock) < n {
		// Blocks grow with what the connection has cut so far, the way its
		// send buffer fills, up to slabBlockMax pages.
		c.slabBlock = make([]mem.Page, max(n, min(max(c.slabCut, slabBlockMin), slabBlockMax)))
	}
	s := c.slabBlock[:0:n]
	c.slabBlock = c.slabBlock[n:]
	c.slabCut += n
	return s
}

// The bounds, in pages, of a block fresh send-buffer slabs are cut from
// (a mem.Page is 8 bytes, so the largest block is 1 KB). A single slab
// larger than slabBlockMax gets a block of its own size.
const (
	slabBlockMin = 8
	slabBlockMax = 128
)

func (c *Conn) rttSample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
		return
	}
	d := c.srtt - rtt
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration {
	rto := c.srtt + 4*c.rttvar
	return max(rto, minRTO)
}

func (c *Conn) armRTO() {
	if c.sndNxt == c.sndUna {
		c.rtoTimer.Stop()
		return // nothing outstanding
	}
	// Fast path: reschedule the pending timer in place (heap.Fix, no
	// allocation). Every delivered ACK re-arms the RTO, so this is one of
	// the hottest timer operations in the whole stack.
	if c.rtoTimer.Reset(c.eng.Now().Add(c.RTO())) {
		return
	}
	c.rtoTimer = c.eng.AfterArg(c.RTO(), rtoEv, c)
}

// rtoEv is the retransmission timer: it raises onRTO in softirq context.
func rtoEv(a any) {
	c := a.(*Conn)
	if c.rtoBody == nil {
		c.rtoBody = c.onRTO
	}
	c.hooks.Softirq(c.rtoBody)
}

func (c *Conn) onRTO(ctx *exec.Ctx) {
	if c.sndNxt == c.sndUna {
		return // acked in the meantime
	}
	c.stats.Timeouts++
	ctx.Charge(cpumodel.Etc, c.costs.TimerFire)
	c.cc.OnRTO()
	c.sacked = c.sacked[:0]
	c.inRecovery = false
	c.dupAcks = 0
	c.emitProbe(ctx.Now(), ProbeRTO, 0)
	c.retransmitRange(ctx, c.sndUna, c.cfg.MSS)
	c.armRTO()
}

// mergeSACK folds the peer's SACK report into the scoreboard.
func (c *Conn) mergeSACK(ranges []skb.Range) {
	for _, r := range ranges {
		if r.End <= c.sndUna || r.Len() <= 0 {
			continue
		}
		if r.Start < c.sndUna {
			r.Start = c.sndUna
		}
		c.sacked = append(c.sacked, r)
	}
	if len(c.sacked) == 0 {
		return
	}
	// The merge keeps the largest End among equal Starts, so the result
	// does not depend on how an unstable sort orders them.
	slices.SortFunc(c.sacked, func(a, b skb.Range) int { return cmp.Compare(a.Start, b.Start) })
	merged := c.sacked[:1]
	for _, r := range c.sacked[1:] {
		last := &merged[len(merged)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
		} else {
			merged = append(merged, r)
		}
	}
	c.sacked = merged
}

func (c *Conn) trimSacked() {
	out := c.sacked[:0]
	for _, r := range c.sacked {
		if r.End > c.sndUna {
			if r.Start < c.sndUna {
				r.Start = c.sndUna
			}
			out = append(out, r)
		}
	}
	c.sacked = out
}

// sackedBeyond reports whether at least n bytes are sacked above sndUna —
// the SACK analogue of three duplicate ACKs.
func (c *Conn) sackedBeyond(n int64) bool {
	var total int64
	for _, r := range c.sacked {
		total += r.Len()
	}
	return total >= n
}

func (c *Conn) enterRecovery(ctx *exec.Ctx) {
	c.inRecovery = true
	c.recoveryEnd = c.sndNxt
	c.retxNext = c.sndUna
	c.stats.FastRetransmit++
	c.cc.OnLoss()
	c.emitProbe(ctx.Now(), ProbeFastRetransmit, 0)
	c.retransmitHoles(ctx)
}

// retransmitHoles resends un-sacked gaps while the window allows.
func (c *Conn) retransmitHoles(ctx *exec.Ctx) {
	for c.InFlight() < c.cc.Cwnd() {
		start, length := c.nextHole()
		if length <= 0 {
			return
		}
		c.retransmitRange(ctx, start, length)
	}
}

// nextHole finds the next missing range at or above retxNext and below
// the highest sacked byte (only ranges the SACK evidence says are lost).
func (c *Conn) nextHole() (int64, units.Bytes) {
	if len(c.sacked) == 0 {
		if c.dupAcks >= 3 && c.retxNext <= c.sndUna {
			// No SACK info (pure dupacks): resend the first segment.
			return c.sndUna, c.cfg.MSS
		}
		return 0, 0
	}
	pos := c.retxNext
	if pos < c.sndUna {
		pos = c.sndUna
	}
	for _, r := range c.sacked {
		if pos < r.Start {
			length := units.Bytes(r.Start - pos)
			if length > c.cfg.MSS {
				length = c.cfg.MSS
			}
			return pos, length
		}
		if pos < r.End {
			pos = r.End
		}
	}
	return 0, 0 // no hole below the highest sacked byte
}

func (c *Conn) retransmitRange(ctx *exec.Ctx, seq int64, length units.Bytes) {
	if end := c.sndNxt; seq+int64(length) > end {
		length = units.Bytes(end - seq)
	}
	if length <= 0 {
		return
	}
	c.stats.Retransmits++
	c.stats.RetransBytes += length
	c.inQdisc += length
	c.retxNext = seq + int64(length)
	ctx.Charge(cpumodel.TCPIP, c.costs.Retransmit)
	c.emitProbe(ctx.Now(), ProbeRetransmit, 0)
	c.hooks.SendSegment(ctx, c, seq, length, true)
}

// maybePersist arms the zero-window probe timer when data waits on a
// closed peer window.
func (c *Conn) maybePersist() {
	stalled := c.sndNxt < c.appLimit && c.sndNxt >= c.rightEdge
	if !stalled {
		c.persistTimer.Stop()
		return
	}
	if c.persistTimer.Pending() {
		return
	}
	c.persistTimer = c.eng.AfterArg(persistTime, persistEv, c)
}

// persistEv is the zero-window probe timer: it raises onPersist in
// softirq context.
func persistEv(a any) {
	c := a.(*Conn)
	if c.persistBody == nil {
		c.persistBody = c.onPersist
	}
	c.hooks.Softirq(c.persistBody)
}

// onPersist is the zero-window probe timer handler (softirq context).
func (c *Conn) onPersist(ctx *exec.Ctx) {
	if c.sndNxt < c.appLimit && c.sndNxt >= c.rightEdge {
		c.stats.Probes++
		ctx.Charge(cpumodel.Etc, c.costs.TimerFire)
		c.hooks.SendProbe(ctx, c)
		c.maybePersist()
	}
}

// ---------------------------------------------------------------------------
// Receive path.

func (c *Conn) onData(ctx *exec.Ctx, s *skb.SKB) {
	ctx.Charge(cpumodel.TCPIP, c.costs.TCPRxPerSKB)
	if s.CE {
		c.ecnPending = true
	}
	switch {
	case s.Seq == c.rcvNxt:
		c.acceptInOrder(ctx, s)
	case s.Seq > c.rcvNxt:
		// Out of order: queue, signal the gap immediately, and enter
		// quickack mode (Linux acks every segment for a while after
		// reordering, inflating ACK-processing costs under loss — §3.6).
		c.stats.OOOSegments++
		ctx.Charge(cpumodel.TCPIP, c.costs.TCPRxOOO)
		c.insertOOO(s)
		c.quickAcks = 16
		c.sendAck(ctx, true)
	default:
		// Duplicate (retransmission overlap): ack what we have.
		if s.End() > c.rcvNxt {
			// Partially new: trim the stale prefix and accept.
			trim := c.rcvNxt - s.Seq
			s.Seq = c.rcvNxt
			s.Len -= units.Bytes(trim)
			c.acceptInOrder(ctx, s)
			return
		}
		c.sendAck(ctx, false)
		c.hooks.Recycle(s)
	}
}

func (c *Conn) acceptInOrder(ctx *exec.Ctx, s *skb.SKB) {
	c.enqueueRecv(s)
	// Drain any out-of-order skbs this unblocks, then slide the rest to
	// the front so the queue keeps its capacity for the next insertOOO.
	i := 0
	for ; i < len(c.ooo) && c.ooo[i].Seq <= c.rcvNxt; i++ {
		q := c.ooo[i]
		c.oooBytes -= q.Len
		if q.End() <= c.rcvNxt {
			c.hooks.Recycle(q)
			continue // fully duplicate
		}
		if q.Seq < c.rcvNxt {
			trim := c.rcvNxt - q.Seq
			q.Seq = c.rcvNxt
			q.Len -= units.Bytes(trim)
		}
		c.enqueueRecv(q)
	}
	if i > 0 {
		n := copy(c.ooo, c.ooo[i:])
		clear(c.ooo[n:])
		c.ooo = c.ooo[:n]
	}
	c.autotune()
	c.unacked += s.Len
	if c.quickAcks > 0 {
		c.quickAcks--
		c.sendAck(ctx, false)
	} else if c.unacked >= 2*c.cfg.MSS || len(c.ooo) > 0 {
		c.sendAck(ctx, false)
	} else if !c.delAckTimer.Pending() {
		// Trailing-edge delayed ACK so the final sub-threshold bytes of a
		// burst are still acknowledged.
		c.delAckTimer = c.eng.AfterArg(delAckTime, delAckEv, c)
	}
	c.hooks.OnReadable(ctx, c)
}

// delAckEv is the delayed-ACK timer: it raises onDelAck in softirq
// context.
func delAckEv(a any) {
	c := a.(*Conn)
	if c.delAckBody == nil {
		c.delAckBody = c.onDelAck
	}
	c.hooks.Softirq(c.delAckBody)
}

// onDelAck is the delayed-ACK timer handler (softirq context).
func (c *Conn) onDelAck(ctx *exec.Ctx) {
	if c.unacked > 0 {
		ctx.Charge(cpumodel.Etc, c.costs.TimerFire)
		c.sendAck(ctx, false)
	}
}

func (c *Conn) enqueueRecv(s *skb.SKB) {
	c.rcvNxt = s.End()
	c.recvQ.Push(s)
	c.recvQBytes += s.Len
	c.stats.DeliveredBytes += s.Len
	c.tuneAcc += s.Len
}

func (c *Conn) insertOOO(s *skb.SKB) {
	i := sort.Search(len(c.ooo), func(i int) bool { return c.ooo[i].Seq >= s.Seq })
	if i < len(c.ooo) && c.ooo[i].Seq == s.Seq {
		c.hooks.Recycle(s)
		return // exact duplicate
	}
	c.ooo = append(c.ooo, nil)
	copy(c.ooo[i+1:], c.ooo[i:])
	c.ooo[i] = s
	c.oooBytes += s.Len
}

// advertisedWindow returns the receive window to advertise. Like Linux
// (tcp_adv_win_scale=1), only half the buffer is offered as window — the
// rest budgets skb overhead — so a 6MB autotuned buffer advertises 3MB.
func (c *Conn) advertisedWindow() units.Bytes {
	capacity := c.rcvBuf / 2
	if c.wndClamp >= 0 && c.wndClamp < capacity {
		capacity = c.wndClamp
	}
	used := c.recvQBytes + c.oooBytes
	if used >= capacity {
		return 0
	}
	return capacity - used
}

// SetWindowClamp clamps the advertised receive window (receiver-driven
// scheduling, §4 of the paper); clamp < 0 removes the clamp. When the
// window opens as a result, an immediate window-update ACK tells the
// sender.
func (c *Conn) SetWindowClamp(ctx *exec.Ctx, clamp units.Bytes) {
	before := c.advertisedWindow()
	c.wndClamp = clamp
	if after := c.advertisedWindow(); after > before {
		c.sendAck(ctx, false)
	}
}

// sendAck emits an acknowledgment; dup marks an out-of-order trigger.
func (c *Conn) sendAck(ctx *exec.Ctx, dup bool) {
	c.delAckTimer.Stop()
	ctx.Charge(cpumodel.TCPIP, c.costs.ACKGenerate)
	info := c.hooks.NewAck()
	info.Cum = c.rcvNxt
	info.Window = c.advertisedWindow()
	info.ECNEcho = c.ecnPending
	c.ecnPending = false
	// Up to 3 SACK ranges from the OOO queue (coalesced), reusing the
	// record's SACK capacity.
	ranges := info.SACK[:0]
	for _, q := range c.ooo {
		if n := len(ranges); n > 0 && ranges[n-1].End == q.Seq {
			ranges[n-1].End = q.End()
			continue
		}
		if len(ranges) == 3 {
			break
		}
		ranges = append(ranges, skb.Range{Start: q.Seq, End: q.End()})
	}
	info.SACK = ranges
	c.unacked = 0
	c.lastAdvWnd = info.Window
	c.stats.AcksSent++
	if dup {
		c.stats.DupAcksSent++
	}
	c.hooks.SendAck(ctx, c, info)
}

// autotune models Linux's dynamic right-sizing (DRS): each time a full
// receive-buffer's worth of data arrives (one "rcv_rtt" in DRS terms),
// the buffer doubles toward tcp_rmem[2]. When the receiver CPU is the
// bottleneck this measured rcv_rtt inflates with host queueing, so the
// buffer keeps growing regardless — the overshoot past the cache-optimal
// point that §3.1 of the paper calls out.
func (c *Conn) autotune() {
	if c.cfg.RcvBufMax == 0 || c.rcvBuf >= c.cfg.RcvBufMax {
		return
	}
	if c.tuneAcc < c.rcvBuf {
		return
	}
	c.tuneAcc = 0
	c.rcvBuf *= 2
	if c.rcvBuf > c.cfg.RcvBufMax {
		c.rcvBuf = c.cfg.RcvBufMax
	}
}

// Readable returns the bytes queued for the application.
func (c *Conn) Readable() units.Bytes { return c.recvQBytes }

// Read pops up to max bytes of whole skbs from the receive queue. The
// caller (application layer) performs the data copy and frees the pages.
// A window-update ACK is sent when the window reopens significantly.
// The returned slice is scratch owned by the connection: it is valid only
// until the next Read call.
func (c *Conn) Read(ctx *exec.Ctx, max units.Bytes) []*skb.SKB {
	out := c.readOut[:0]
	var taken units.Bytes
	for c.recvQ.Len() > 0 && taken < max {
		s := c.recvQ.Pop()
		c.recvQBytes -= s.Len
		taken += s.Len
		out = append(out, s)
	}
	c.readOut = out
	if len(out) == 0 {
		return nil
	}
	// Window update: if the advertised window was small and has now
	// meaningfully reopened, tell the sender.
	if c.lastAdvWnd < 2*c.cfg.MSS && c.advertisedWindow() >= 2*c.cfg.MSS {
		c.sendAck(ctx, false)
	}
	return out
}
