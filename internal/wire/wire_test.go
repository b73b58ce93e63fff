package wire

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

func dataFrame(l units.Bytes) *skb.Frame {
	return &skb.Frame{Flow: 1, Len: l}
}

func TestDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	var at sim.Time
	// 1434B payload -> 1500B wire = 120ns at 100Gbps, +2us propagation.
	l := NewLink(eng, 100*units.Gbps, 2*time.Microsecond, func(f *skb.Frame) { at = eng.Now() })
	l.Send(dataFrame(1434))
	eng.Run(sim.Time(time.Millisecond))
	want := sim.Time(120 + 2000)
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestSerializationQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []sim.Time
	l := NewLink(eng, 100*units.Gbps, 0, func(f *skb.Frame) { times = append(times, eng.Now()) })
	// Two 1434B frames sent back to back: second waits for the first.
	l.Send(dataFrame(1434))
	l.Send(dataFrame(1434))
	eng.Run(sim.Time(time.Millisecond))
	if len(times) != 2 {
		t.Fatalf("delivered %d frames", len(times))
	}
	if times[0] != 120 || times[1] != 240 {
		t.Errorf("times = %v, want [120 240]", times)
	}
}

func TestFIFOOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []skb.FlowID
	l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) { got = append(got, f.Flow) })
	for i := 0; i < 10; i++ {
		f := dataFrame(9000)
		f.Flow = skb.FlowID(i)
		l.Send(f)
	}
	eng.Run(sim.Time(time.Millisecond))
	for i, fl := range got {
		if int(fl) != i {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestLossRate(t *testing.T) {
	eng := sim.NewEngine(7)
	delivered := 0
	l := NewLink(eng, 100*units.Gbps, 0, func(f *skb.Frame) { delivered++ })
	l.SetLossRate(0.1)
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(dataFrame(1434))
	}
	eng.Run(sim.Time(time.Second))
	st := l.Stats()
	if st.Sent != n {
		t.Fatalf("Sent = %d", st.Sent)
	}
	lossFrac := float64(st.Dropped) / float64(n)
	if lossFrac < 0.08 || lossFrac > 0.12 {
		t.Errorf("observed loss %.4f, want ~0.1", lossFrac)
	}
	if int64(delivered) != st.Delivered || st.Delivered+st.Dropped != n {
		t.Errorf("conservation: delivered %d + dropped %d != %d", st.Delivered, st.Dropped, n)
	}
}

func TestZeroLossDeliversAll(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	l := NewLink(eng, 100*units.Gbps, 0, func(f *skb.Frame) { delivered++ })
	for i := 0; i < 1000; i++ {
		l.Send(dataFrame(9000))
	}
	eng.Run(sim.Time(time.Second))
	if delivered != 1000 {
		t.Errorf("delivered %d/1000", delivered)
	}
}

func TestECNMarking(t *testing.T) {
	eng := sim.NewEngine(1)
	marked := 0
	l := NewLink(eng, 100*units.Gbps, 0, func(f *skb.Frame) {
		if f.CE {
			marked++
		}
	})
	l.SetECNThreshold(30 * units.KB)
	// Burst of 100 jumbo frames: the backlog quickly exceeds 30KB, so the
	// later frames must be marked.
	for i := 0; i < 100; i++ {
		l.Send(dataFrame(9000))
	}
	eng.Run(sim.Time(time.Second))
	if marked < 50 {
		t.Errorf("marked %d/100, want most of the burst tail", marked)
	}
	if l.Stats().Marked != int64(marked) {
		t.Error("Marked stat disagrees with delivered CE frames")
	}
}

func TestNoECNWithoutThreshold(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100*units.Gbps, 0, func(f *skb.Frame) {
		if f.CE {
			t.Error("frame marked with ECN disabled")
		}
	})
	for i := 0; i < 50; i++ {
		l.Send(dataFrame(9000))
	}
	eng.Run(sim.Time(time.Second))
}

func TestBacklog(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100*units.Gbps, 0, func(f *skb.Frame) {})
	if l.Backlog() != 0 {
		t.Error("fresh link should have no backlog")
	}
	for i := 0; i < 10; i++ {
		l.Send(dataFrame(9000 - 66))
	}
	// 10 frames x 9000B wire = 90KB backlog at t=0.
	got := l.Backlog()
	if got < 80*units.KB || got > 92*units.KB {
		t.Errorf("Backlog = %v, want ~90KB", got)
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	cb := func(f *skb.Frame) {}
	for name, fn := range map[string]func(){
		"nil engine":    func() { NewLink(nil, units.Gbps, 0, cb) },
		"nil callback":  func() { NewLink(eng, units.Gbps, 0, nil) },
		"zero rate":     func() { NewLink(eng, 0, 0, cb) },
		"neg delay":     func() { NewLink(eng, units.Gbps, -1, cb) },
		"bad loss":      func() { NewLink(eng, units.Gbps, 0, cb).SetLossRate(1.5) },
		"neg threshold": func() { NewLink(eng, units.Gbps, 0, cb).SetECNThreshold(-1) },
		"nil frame":     func() { NewLink(eng, units.Gbps, 0, cb).Send(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestThroughputAtLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var bytes units.Bytes
	l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) { bytes += f.Len })
	// Keep the link saturated for 1ms: send the next frame upon delivery.
	var send func()
	sent := 0
	send = func() {
		if eng.Now() > sim.Time(time.Millisecond) {
			return
		}
		l.Send(dataFrame(9000 - 66))
		sent++
		eng.After(l.Rate().Serialize(9000), send)
	}
	eng.At(0, func() { send() })
	eng.Run(sim.Time(2 * time.Millisecond))
	rate := units.RateOf(bytes, time.Millisecond+2*time.Microsecond)
	if g := rate.Gigabits(); g < 95 || g > 101 {
		t.Errorf("goodput = %.1fGbps, want ~99 (line rate minus headers)", g)
	}
}

// perFrameLink is the reference the Link's FIFO is checked against: the
// same lossless serializer with one engine event per frame in flight,
// scheduled at Send.
type perFrameLink struct {
	eng      *sim.Engine
	rate     units.BitRate
	delay    time.Duration
	nextFree sim.Time
	deliver  func(any)
}

func (r *perFrameLink) Send(f *skb.Frame) bool {
	start := r.nextFree
	if now := r.eng.Now(); start < now {
		start = now
	}
	r.nextFree = start.Add(r.rate.Serialize(f.WireSize()))
	r.eng.AtArg(r.nextFree.Add(r.delay), r.deliver, f)
	return false
}

func (r *perFrameLink) Rate() units.BitRate { return r.rate }

type traceRec struct {
	at sim.Time
	id int // frame id, or -1-k for the k-th unrelated event
}

// fifoScenario runs one seeded mix of traffic on a link built by mk:
// bursts sent from unrelated events, frames sent from inside delivery,
// and unrelated events scheduled at exactly a queued frame's delivery
// time. Every random draw happens inside a callback, so two runs stay in
// step only if they dispatch in the same order.
func fifoScenario(seed int64, mk func(eng *sim.Engine, deliver func(*skb.Frame)) Egress) []traceRec {
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	const rate, delay = 100 * units.Gbps, 2 * time.Microsecond
	var trace []traceRec
	var nextFree sim.Time // mirrors the serializer, to aim at delivery times
	ids, marks := 0, 0
	var link Egress
	send := func() {
		f := dataFrame(units.Bytes(64 + rng.Intn(9000)))
		f.Flow = skb.FlowID(ids)
		ids++
		start := nextFree
		if start < eng.Now() {
			start = eng.Now()
		}
		nextFree = start.Add(rate.Serialize(f.WireSize()))
		link.Send(f)
	}
	var mark func()
	mark = func() {
		k := marks
		marks++
		var at sim.Time
		switch rng.Intn(3) {
		case 0: // exactly the last queued frame's delivery
			at = nextFree.Add(delay)
		case 1:
			at = eng.Now()
		default:
			at = eng.Now() + sim.Time(rng.Intn(5000))
		}
		if at < eng.Now() {
			at = eng.Now()
		}
		eng.At(at, func() {
			trace = append(trace, traceRec{eng.Now(), -1 - k})
			if rng.Intn(2) == 0 {
				for n := rng.Intn(6); n > 0; n-- {
					send()
				}
			}
			if marks < 400 && rng.Intn(3) > 0 {
				mark()
			}
		})
	}
	link = mk(eng, func(f *skb.Frame) {
		trace = append(trace, traceRec{eng.Now(), int(f.Flow)})
		if ids < 2000 && rng.Intn(4) == 0 {
			send()
		}
		if rng.Intn(8) == 0 {
			mark()
		}
	})
	for i := 0; i < 8; i++ {
		mark()
	}
	eng.Run(sim.Time(time.Second))
	return trace
}

// The Link's one-event FIFO dispatches every delivery, and every event
// around it, exactly where one event per frame would.
func TestFIFOMatchesPerFrameEvents(t *testing.T) {
	const rate, delay = 100 * units.Gbps, 2 * time.Microsecond
	for seed := int64(1); seed <= 20; seed++ {
		got := fifoScenario(seed, func(eng *sim.Engine, deliver func(*skb.Frame)) Egress {
			return NewLink(eng, rate, delay, deliver)
		})
		want := fifoScenario(seed, func(eng *sim.Engine, deliver func(*skb.Frame)) Egress {
			return &perFrameLink{eng: eng, rate: rate, delay: delay,
				deliver: func(a any) { deliver(a.(*skb.Frame)) }}
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// A burst holds one engine event however many frames are in flight, and
// still delivers each frame at its own serialized time, in order.
func TestBurstHoldsOneEvent(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []sim.Time
	var order []skb.FlowID
	l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) {
		times = append(times, eng.Now())
		order = append(order, f.Flow)
	})
	const n = 100 // past the ring's first growth
	for i := 0; i < n; i++ {
		f := dataFrame(1434)
		f.Flow = skb.FlowID(i)
		l.Send(f)
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("Pending = %d with %d frames in flight, want 1", p, n)
	}
	eng.Run(sim.Time(time.Millisecond))
	if len(times) != n {
		t.Fatalf("delivered %d/%d", len(times), n)
	}
	for i := range times {
		if want := sim.Time((i+1)*120 + 1000); times[i] != want || order[i] != skb.FlowID(i) {
			t.Fatalf("frame %d: delivered flow %d at %v, want flow %d at %v", i, order[i], times[i], i, want)
		}
	}
	if eng.Pending() != 0 {
		t.Errorf("Pending = %d after the burst drained", eng.Pending())
	}
}

// An unrelated event scheduled after frame k's Send, at exactly frame k's
// delivery time, fires after the frame: the frame's place in the tie
// order was fixed at Send, even though its engine event is only scheduled
// when it reaches the head of the FIFO.
func TestFIFOTieOrderFixedAtSend(t *testing.T) {
	const n = 8
	for k := 0; k < n; k++ {
		eng := sim.NewEngine(1)
		var order []string
		l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) {
			order = append(order, fmt.Sprintf("frame%d", f.Flow))
		})
		for i := 0; i < n; i++ {
			f := dataFrame(1434)
			f.Flow = skb.FlowID(i)
			l.Send(f)
			if i == k {
				eng.At(sim.Time((k+1)*120+1000), func() { order = append(order, "other") })
			}
		}
		eng.Run(sim.Time(time.Millisecond))
		if len(order) != n+1 || order[k] != fmt.Sprintf("frame%d", k) || order[k+1] != "other" {
			t.Errorf("k=%d: fire order %v, want the other event right after frame%d", k, order, k)
		}
	}
}

// A delivery callback that sends on the same link leaves the FIFO
// consistent, whether the ring is empty (one frame in flight) or still
// holds frames (a burst of three).
func TestSendFromDeliver(t *testing.T) {
	for _, burst := range []int{1, 3} {
		eng := sim.NewEngine(1)
		var got []skb.FlowID
		var times []sim.Time
		var l *Link
		next := skb.FlowID(burst)
		l = NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) {
			got = append(got, f.Flow)
			times = append(times, eng.Now())
			if next < 10 {
				nf := dataFrame(1434)
				nf.Flow = next
				next++
				l.Send(nf)
			}
		})
		for i := 0; i < burst; i++ {
			f := dataFrame(1434)
			f.Flow = skb.FlowID(i)
			l.Send(f)
		}
		eng.Run(sim.Time(time.Millisecond))
		if len(got) != 10 {
			t.Fatalf("burst %d: delivered %d frames, want 10: %v", burst, len(got), got)
		}
		for i := range got {
			// Each resend finds the serializer idle: it takes one
			// serialization (120ns) plus propagation after the delivery
			// that sent it.
			want := sim.Time((i+1)*120 + 1000)
			if i >= burst {
				want = times[i-burst] + 120 + 1000
			}
			if got[i] != skb.FlowID(i) || times[i] != want {
				t.Fatalf("burst %d: delivery %d is flow %d at %v, want flow %d at %v",
					burst, i, got[i], times[i], i, want)
			}
		}
		if fr, pl := l.InFlight(); fr != 0 || pl != 0 || eng.Pending() != 0 {
			t.Errorf("burst %d: after drain %d frames / %v in flight, %d pending events",
				burst, fr, pl, eng.Pending())
		}
	}
}

// InFlight and Stats reconcile at every point of a lossy burst.
func TestInFlightReconcilesWithStats(t *testing.T) {
	eng := sim.NewEngine(3)
	l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) {})
	l.SetLossRate(0.2)
	for i := 0; i < 200; i++ {
		l.Send(dataFrame(units.Bytes(100 + i)))
	}
	for h := sim.Time(0); h <= sim.Time(50*time.Microsecond); h += 700 {
		eng.Run(h)
		st := l.Stats()
		fr, pl := l.InFlight()
		if st.Sent != st.Delivered+st.Dropped+fr ||
			st.SentPayload != st.DeliveredPayload+st.DroppedPayload+pl {
			t.Fatalf("at %v: sent %d/%v != delivered %d/%v + dropped %d/%v + in flight %d/%v",
				h, st.Sent, st.SentPayload, st.Delivered, st.DeliveredPayload,
				st.Dropped, st.DroppedPayload, fr, pl)
		}
	}
	if fr, _ := l.InFlight(); fr != 0 {
		t.Errorf("%d frames still in flight after the burst drained", fr)
	}
}

// Once the ring has grown to the working depth, Send and delivery
// allocate nothing.
func TestSendDeliverAllocationFree(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(f *skb.Frame) {})
	frames := make([]*skb.Frame, 32)
	for i := range frames {
		frames[i] = dataFrame(1434)
	}
	burst := func() {
		for _, f := range frames {
			l.Send(f)
		}
		eng.Run(eng.Now() + sim.Time(time.Millisecond))
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("Send+deliver of a %d-frame burst allocates %v per run, want 0", len(frames), allocs)
	}
}

// Send reports exactly the frames the switch drops: its verdict matches
// the tap's and the Dropped counter frame for frame, a CE mark is not a
// drop, and a lossless link reports none.
func TestSendReportsLossDrops(t *testing.T) {
	for _, c := range []struct {
		name string
		loss float64
		ecn  units.Bytes
	}{
		{"lossless", 0, 0},
		{"marking", 0, 4 * units.KB},
		{"lossy", 0.3, 4 * units.KB},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(5)
			l := NewLink(eng, 100*units.Gbps, time.Microsecond, func(*skb.Frame) {})
			l.SetLossRate(c.loss)
			l.SetECNThreshold(c.ecn)
			var tapped bool
			l.AddTap(func(_ *skb.Frame, dropped bool) { tapped = dropped })
			var reported int64
			for i := 0; i < 500; i++ {
				before := l.Stats().Dropped
				dropped := l.Send(dataFrame(1434))
				if dropped != tapped || dropped != (l.Stats().Dropped == before+1) {
					t.Fatalf("frame %d: Send reported %v, tap saw %v, Dropped %d -> %d",
						i, dropped, tapped, before, l.Stats().Dropped)
				}
				if dropped {
					reported++
				}
			}
			eng.Run(sim.Time(time.Second))
			st := l.Stats()
			if (c.loss > 0) != (reported > 0) || (c.ecn > 0) != (st.Marked > 0) {
				t.Errorf("%d drops reported, %d marks; want drops only with loss, marks only with a threshold", reported, st.Marked)
			}
			if st.Delivered+reported != 500 {
				t.Errorf("%d delivered + %d reported dropped != 500 sent", st.Delivered, reported)
			}
		})
	}
}
