package workload

import (
	"testing"
	"time"

	"hostsim/internal/core"
	"hostsim/internal/cpumodel"
	"hostsim/internal/fabric"
	"hostsim/internal/sim"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

func newPair(t *testing.T) (*sim.Engine, *core.Host, *core.Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	costs := cpumodel.Default()
	spec := topology.Default()
	a := core.NewHost("a", eng, spec, costs, core.AllOpts())
	b := core.NewHost("b", eng, spec, costs, core.AllOpts())
	core.ConnectFabric([]*core.Host{a, b}, fabric.Config{})
	return eng, a, b
}

func TestPatternPairs(t *testing.T) {
	cases := []struct {
		p      Pattern
		n      int
		want   int
		first  [2]int
		spread bool // receiver cores all distinct
	}{
		{Single, 0, 1, [2]int{0, 0}, true},
		{OneToOne, 8, 8, [2]int{0, 0}, true},
		{Incast, 8, 8, [2]int{0, 0}, false},
		{Outcast, 8, 8, [2]int{0, 0}, true},
		{AllToAll, 4, 16, [2]int{0, 0}, false},
	}
	for _, c := range cases {
		pairs := PatternPairs(24, c.p, c.n)
		if len(pairs) != c.want {
			t.Errorf("%v: %d pairs, want %d", c.p, len(pairs), c.want)
			continue
		}
		if pairs[0] != c.first {
			t.Errorf("%v: first pair %v", c.p, pairs[0])
		}
		if c.spread {
			seen := map[int]bool{}
			for _, pr := range pairs {
				if seen[pr[1]] {
					t.Errorf("%v: receiver core %d reused", c.p, pr[1])
				}
				seen[pr[1]] = true
			}
		}
	}
	// Incast: one receiver core.
	for _, pr := range PatternPairs(24, Incast, 8) {
		if pr[1] != 0 {
			t.Error("incast must target core 0")
		}
	}
	// Outcast: one sender core.
	for _, pr := range PatternPairs(24, Outcast, 8) {
		if pr[0] != 0 {
			t.Error("outcast must source core 0")
		}
	}
	// All-to-all covers the full grid.
	grid := map[[2]int]bool{}
	for _, pr := range PatternPairs(24, AllToAll, 3) {
		grid[pr] = true
	}
	if len(grid) != 9 {
		t.Errorf("3x3 all-to-all covered %d cells", len(grid))
	}
}

func TestPatternPairsPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d should panic", n)
				}
			}()
			PatternPairs(24, OneToOne, n)
		}()
	}
}

func TestPatternString(t *testing.T) {
	names := map[Pattern]string{
		Single: "single", OneToOne: "one-to-one", Incast: "incast",
		Outcast: "outcast", AllToAll: "all-to-all", Pattern(99): "invalid",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestLongFlowMovesData(t *testing.T) {
	eng, a, b := newPair(t)
	flows := LongFlows(a, b, Single, 1)
	eng.Run(sim.Time(20 * time.Millisecond))
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	st := flows[0].Receiver.Conn().Stats()
	if st.DeliveredBytes < 10*units.MB {
		t.Errorf("long flow delivered only %v in 20ms", st.DeliveredBytes)
	}
	// Copied lags Delivered by exactly the un-read receive queue.
	if b.Copied()+flows[0].Receiver.Readable() != st.DeliveredBytes {
		t.Errorf("copied %v + queued %v != delivered %v",
			b.Copied(), flows[0].Receiver.Readable(), st.DeliveredBytes)
	}
}

func TestRPCPingPong(t *testing.T) {
	eng, a, b := newPair(t)
	clients, srv := RPCIncast(a, b, 4, 0, 4096)
	eng.Run(sim.Time(20 * time.Millisecond))
	var completed int64
	for _, c := range clients {
		if c.Completed == 0 {
			t.Error("a client completed no RPCs")
		}
		completed += c.Completed
	}
	if completed < 100 {
		t.Errorf("completed = %d, want many", completed)
	}
	// Server must have answered at least the completed count.
	if srv.Served < completed {
		t.Errorf("served %d < completed %d", srv.Served, completed)
	}
	// Conservation: client received exactly size bytes per completion
	// (plus possibly one in-flight response).
	for _, c := range clients {
		got := c.EP.Conn().Stats().DeliveredBytes
		min := units.Bytes(c.Completed) * c.Size
		if got < min || got > min+c.Size {
			t.Errorf("client delivered %v for %d completions of %v", got, c.Completed, c.Size)
		}
	}
}

func TestRPCLargeSize(t *testing.T) {
	eng, a, b := newPair(t)
	clients, _ := RPCIncast(a, b, 2, 0, 65536)
	eng.Run(sim.Time(20 * time.Millisecond))
	for _, c := range clients {
		if c.Completed == 0 {
			t.Error("64KB RPC client stalled")
		}
	}
}

func TestMixedOnCore(t *testing.T) {
	eng, a, b := newPair(t)
	lf, clients, srv := MixedOnCore(a, b, 0, 4, 4096)
	eng.Run(sim.Time(20 * time.Millisecond))
	if lf.Receiver.Conn().Stats().DeliveredBytes == 0 {
		t.Error("long flow starved completely")
	}
	var completed int64
	for _, c := range clients {
		completed += c.Completed
	}
	if completed == 0 {
		t.Error("short flows starved completely")
	}
	if srv == nil {
		t.Fatal("server missing")
	}
}

func TestMixedZeroShorts(t *testing.T) {
	eng, a, b := newPair(t)
	lf, clients, srv := MixedOnCore(a, b, 0, 0, 4096)
	if clients != nil || srv != nil {
		t.Error("no shorts requested, none expected")
	}
	eng.Run(sim.Time(5 * time.Millisecond))
	if lf.Receiver.Conn().Stats().DeliveredBytes == 0 {
		t.Error("long flow alone should run")
	}
}

func TestMixingDegradesLongFlow(t *testing.T) {
	eng1, a1, b1 := newPair(t)
	lfAlone, _, _ := MixedOnCore(a1, b1, 0, 0, 4096)
	eng1.Run(sim.Time(20 * time.Millisecond))
	alone := lfAlone.Receiver.Conn().Stats().DeliveredBytes

	eng2, a2, b2 := newPair(t)
	lfMixed, _, _ := MixedOnCore(a2, b2, 0, 16, 4096)
	eng2.Run(sim.Time(20 * time.Millisecond))
	mixed := lfMixed.Receiver.Conn().Stats().DeliveredBytes

	if mixed >= alone*8/10 {
		t.Errorf("mixing with 16 shorts should cost the long flow >20%%: alone %v, mixed %v", alone, mixed)
	}
}

func TestStartRPCServerValidation(t *testing.T) {
	_, a, b := newPair(t)
	cEP, sEP := core.OpenConn(a, 0, b, 0)
	_ = cEP
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero size should panic")
			}
		}()
		StartRPCServer(b, 0, 0, []*core.Endpoint{sEP})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong core should panic")
			}
		}()
		StartRPCServer(b, 5, 4096, []*core.Endpoint{sEP})
	}()
}

func TestStartRPCClientValidation(t *testing.T) {
	_, a, b := newPair(t)
	cEP, _ := core.OpenConn(a, 0, b, 0)
	defer func() {
		if recover() == nil {
			t.Error("zero size should panic")
		}
	}()
	StartRPCClient(cEP, 0)
}
