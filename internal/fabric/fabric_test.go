package fabric

import (
	"testing"
	"time"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// deliverTo adapts one callback tagged with the delivery port to New's
// per-port receivers.
func deliverTo(fn func(port int, f *skb.Frame)) DeliverFunc {
	return func(port int) func(*skb.Frame) {
		return func(f *skb.Frame) { fn(port, f) }
	}
}

func testCfg(ports int) Config {
	return Config{Ports: ports, LinkRate: 100 * units.Gbps, Delay: time.Microsecond}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg(4).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Ports: 1, LinkRate: units.Gbps},
		{Ports: 4},
		{Ports: 4, LinkRate: units.Gbps, Delay: -time.Microsecond},
		{Ports: 4, LinkRate: units.Gbps, SharedBuffer: -1},
		{Ports: 4, LinkRate: units.Gbps, Alpha: -0.5},
		{Ports: 4, LinkRate: units.Gbps, ECNThreshold: -1},
		{Ports: 4, LinkRate: units.Gbps, LossRate: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

// TestRoutingBothDirections pins the ingress-exclusion rule: one Register
// entry routes the flow's data frames from their source port AND its
// reverse-direction pure ACKs from the destination port.
func TestRoutingBothDirections(t *testing.T) {
	eng := sim.NewEngine(1)
	got := make(map[int]int) // delivery port -> frames
	fb := New(eng, testCfg(4), deliverTo(func(port int, f *skb.Frame) { got[port]++ }))
	fb.Register(7, 1, 3)

	fb.Port(1).Send(&skb.Frame{Flow: 7, Len: 1000})           // data: 1 -> 3
	fb.Port(3).Send(&skb.Frame{Flow: 7, Ack: &skb.AckInfo{}}) // ACK back: 3 -> 1
	eng.Run(sim.Time(time.Millisecond))

	if got[3] != 1 || got[1] != 1 {
		t.Fatalf("deliveries per port = %v, want 1 each at ports 1 and 3", got)
	}
	if tot := fb.Totals(); tot.In != 2 || tot.Delivered != 2 {
		t.Fatalf("totals in=%d delivered=%d, want 2/2", tot.In, tot.Delivered)
	}
}

func TestRoutingPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	fb := New(eng, testCfg(4), deliverTo(func(int, *skb.Frame) {}))
	fb.Register(1, 0, 2)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate route", func() { fb.Register(1, 0, 3) })
	expectPanic("self route", func() { fb.Register(2, 2, 2) })
	expectPanic("out of range", func() { fb.Register(3, 0, 9) })
	expectPanic("negative flow", func() { fb.Register(-1, 0, 2) })
	expectPanic("unrouted flow", func() { fb.Port(0).Send(&skb.Frame{Flow: 99, Len: 10}) })
	expectPanic("unrouted flow below the highest route", func() { fb.Port(0).Send(&skb.Frame{Flow: 0, Len: 10}) })
	expectPanic("unrouted negative flow", func() { fb.Port(0).Send(&skb.Frame{Flow: -3, Len: 10}) })
}

// burst offers `frames` MTU-sized frames of one flow to an ingress port
// back to back and returns the fabric's drop count afterwards.
func offerIncast(t *testing.T, buffer units.Bytes, alpha float64, senders, frames int) (dropped int64, delivered int64) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := testCfg(senders + 1)
	cfg.SharedBuffer = buffer
	cfg.Alpha = alpha
	var got int64
	fb := New(eng, cfg, deliverTo(func(int, *skb.Frame) { got++ }))
	for s := 0; s < senders; s++ {
		fb.Register(skb.FlowID(s+1), s+1, 0)
	}
	// Open loop: every sender offers its full burst at t=0, regardless of
	// what the switch drops — the fixed arrival schedule that makes
	// drop-count monotonicity a theorem rather than a tendency.
	for i := 0; i < frames; i++ {
		for s := 0; s < senders; s++ {
			fb.Port(s + 1).Send(&skb.Frame{Flow: skb.FlowID(s + 1), Seq: int64(i), Len: 1500})
		}
	}
	eng.Run(sim.Time(10 * time.Millisecond))
	tot := fb.Totals()
	return tot.BufDropped, tot.Delivered
}

// TestSharedBufferMonotonicity pins frame-for-frame dynamic-threshold
// behavior against a fixed (open-loop) arrival schedule: shrinking the
// shared buffer never drops fewer frames, the unbounded pool drops none,
// and dropped + delivered always equals offered.
func TestSharedBufferMonotonicity(t *testing.T) {
	const senders, frames = 7, 200
	offered := int64(senders * frames)
	prev := int64(-1)
	for _, buf := range []units.Bytes{0, 4 * units.MB, units.MB, 256 * units.KB, 64 * units.KB} {
		dropped, delivered := offerIncast(t, buf, 1.0, senders, frames)
		t.Logf("buffer %8v: dropped %4d delivered %4d", buf, dropped, delivered)
		if dropped+delivered != offered {
			t.Fatalf("buffer %v: dropped %d + delivered %d != offered %d", buf, dropped, delivered, offered)
		}
		if buf == 0 && dropped != 0 {
			t.Fatalf("unbounded buffer dropped %d frames", dropped)
		}
		if dropped < prev {
			t.Errorf("buffer %v dropped %d < larger buffer's %d", buf, dropped, prev)
		}
		prev = dropped
	}
}

// TestAlphaLoosensAdmission pins the dynamic-threshold scale factor: a
// larger alpha admits at least as many frames of the same burst.
func TestAlphaLoosensAdmission(t *testing.T) {
	const senders, frames = 7, 200
	prev := int64(-1)
	for _, alpha := range []float64{4, 1, 0.25} {
		dropped, _ := offerIncast(t, 512*units.KB, alpha, senders, frames)
		t.Logf("alpha %.2f: dropped %d", alpha, dropped)
		if dropped < prev {
			t.Errorf("alpha %.2f dropped %d < looser alpha's %d", alpha, dropped, prev)
		}
		prev = dropped
	}
}

// TestOccupancyBounded pins the admission invariant: with alpha <= 1 the
// shared pool's occupancy can never exceed the configured buffer, at any
// point of the burst.
func TestOccupancyBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg(5)
	const buffer = 256 * units.KB
	cfg.SharedBuffer = buffer
	var fb *Fabric
	fb = New(eng, cfg, deliverTo(func(int, *skb.Frame) {
		if occ := fb.Occupancy(); occ > buffer {
			t.Fatalf("occupancy %v exceeds buffer %v", occ, buffer)
		}
	}))
	for s := 0; s < 4; s++ {
		fb.Register(skb.FlowID(s+1), s+1, 0)
	}
	for i := 0; i < 400; i++ {
		for s := 0; s < 4; s++ {
			fb.Port(s + 1).Send(&skb.Frame{Flow: skb.FlowID(s + 1), Len: 1500})
			if occ := fb.Occupancy(); occ > buffer {
				t.Fatalf("occupancy %v exceeds buffer %v after send", occ, buffer)
			}
		}
	}
	eng.Run(sim.Time(10 * time.Millisecond))
}

// TestPortStatsConservation pins each port's ingress ledger: offered
// frames split exactly into forwarded and buffer-dropped, payload bytes
// included.
func TestPortStatsConservation(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testCfg(3)
	cfg.SharedBuffer = 64 * units.KB
	fb := New(eng, cfg, deliverTo(func(int, *skb.Frame) {}))
	fb.Register(1, 1, 0)
	fb.Register(2, 2, 0)
	for i := 0; i < 300; i++ {
		fb.Port(1).Send(&skb.Frame{Flow: 1, Len: 1500})
		fb.Port(2).Send(&skb.Frame{Flow: 2, Len: 1500})
	}
	eng.Run(sim.Time(10 * time.Millisecond))
	for i := 0; i < fb.Ports(); i++ {
		st := fb.Port(i).Stats()
		if st.In != st.Forwarded+st.BufDropped {
			t.Errorf("port %d: In %d != Forwarded %d + BufDropped %d", i, st.In, st.Forwarded, st.BufDropped)
		}
		if st.InPayload != st.ForwardedPayload+st.BufDroppedBytes {
			t.Errorf("port %d: payload ledger off: %v != %v + %v", i, st.InPayload, st.ForwardedPayload, st.BufDroppedBytes)
		}
	}
}

// occupancyProbe is an Observer that checks the occupancy argument of
// every ingress event against a fresh Occupancy sum.
type occupancyProbe struct {
	t                 *testing.T
	fb                *Fabric
	admitted, dropped int
}

func (o *occupancyProbe) FrameIngress(dst int, f *skb.Frame, admitted bool, depth, occupancy units.Bytes) {
	if want := o.fb.Occupancy(); occupancy != want {
		o.t.Fatalf("frame to %d (admitted %v): occupancy %v, Occupancy() %v", dst, admitted, occupancy, want)
	}
	if want := o.fb.Port(dst).Out().Backlog(); depth != want {
		o.t.Fatalf("frame to %d (admitted %v): depth %v, backlog %v", dst, admitted, depth, want)
	}
	if admitted {
		o.admitted++
	} else {
		o.dropped++
	}
}

// TestObserverSeesOccupancy: the occupancy an observer receives equals
// Occupancy() at call time, for admitted and rejected frames, with and
// without a shared buffer. Six senders feed two egress ports in bursts one
// microsecond apart, a little faster than the ports drain, so backlogs
// move on every port between bursts and the buffer fills until it drops.
// Egress loss drops some admitted frames after they took wire time.
func TestObserverSeesOccupancy(t *testing.T) {
	for _, buffer := range []units.Bytes{0, 96 * units.KB} {
		eng := sim.NewEngine(1)
		cfg := testCfg(8)
		cfg.SharedBuffer, cfg.LossRate = buffer, 0.05
		fb := New(eng, cfg, deliverTo(func(int, *skb.Frame) {}))
		probe := &occupancyProbe{t: t, fb: fb}
		fb.SetObserver(probe)
		for s := 2; s < 8; s++ {
			fb.Register(skb.FlowID(s), s, s%2)
		}
		for i := 0; i < 60; i++ {
			eng.At(sim.Time(time.Duration(i)*time.Microsecond), func() {
				for s := 2; s < 8; s++ {
					for k := 0; k < 2+s%3; k++ {
						fb.Port(s).Send(&skb.Frame{Flow: skb.FlowID(s), Len: 1500})
					}
				}
			})
		}
		eng.Run(sim.Time(10 * time.Millisecond))
		t.Logf("buffer %v: %d admitted, %d dropped", buffer, probe.admitted, probe.dropped)
		if probe.admitted == 0 || (buffer > 0) != (probe.dropped > 0) {
			t.Errorf("buffer %v: %d admitted, %d dropped; want admissions, and drops only with a buffer", buffer, probe.admitted, probe.dropped)
		}
	}
}

// Port.Send reports a frame the shared buffer rejects and a frame the
// egress link loses, frame for frame against the fabric's drop counters,
// and reports nothing else.
func TestPortSendReportsDrops(t *testing.T) {
	for _, c := range []struct {
		name   string
		buffer units.Bytes
		loss   float64
	}{
		{"lossless", 0, 0},
		{"shared-buffer", 32 * units.KB, 0},
		{"egress-loss", 0, 0.1},
		{"both", 32 * units.KB, 0.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := testCfg(3)
			cfg.SharedBuffer, cfg.LossRate = c.buffer, c.loss
			fb := New(eng, cfg, deliverTo(func(int, *skb.Frame) {}))
			fb.Register(1, 1, 0)
			fb.Register(2, 2, 0)
			var reported int64
			for i := 0; i < 300; i++ {
				for s := 1; s <= 2; s++ {
					before := fb.Totals()
					dropped := fb.Port(s).Send(&skb.Frame{Flow: skb.FlowID(s), Len: 1500})
					after := fb.Totals()
					counted := after.BufDropped + after.LossDropped - before.BufDropped - before.LossDropped
					if dropped != (counted == 1) {
						t.Fatalf("frame %d from port %d: Send reported %v, the counters moved by %d", i, s, dropped, counted)
					}
					if dropped {
						reported++
					}
				}
			}
			eng.Run(sim.Time(10 * time.Millisecond))
			tot := fb.Totals()
			if (c.buffer > 0) != (tot.BufDropped > 0) || (c.loss > 0) != (tot.LossDropped > 0) {
				t.Errorf("%d buffer drops, %d loss drops; want each only where configured", tot.BufDropped, tot.LossDropped)
			}
			if reported != tot.BufDropped+tot.LossDropped || tot.Delivered+reported != tot.In {
				t.Errorf("%d reported dropped, %d buffer + %d loss dropped, %d delivered of %d in",
					reported, tot.BufDropped, tot.LossDropped, tot.Delivered, tot.In)
			}
		})
	}
}
