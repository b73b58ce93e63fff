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
	c := core.NewCluster(eng, []string{"a", "b"}, topology.Default(), cpumodel.Default(), core.AllOptimizations(), core.Tuning{}, fabric.Config{})
	return eng, c.Hosts()[0], c.Hosts()[1]
}

// rpcIncast opens n client connections, one from each of cores 0..n-1
// of a, to serverCore of b, starts a ping-pong client on each, and serves
// them all from one server.
func rpcIncast(a, b *core.Host, n, serverCore int, size units.Bytes) ([]*RPCClient, *RPCServer) {
	var clients []*RPCClient
	var served []*core.Endpoint
	for i := 0; i < n; i++ {
		cEP, sEP := core.OpenConn(a, i, b, serverCore)
		clients = append(clients, StartRPCClient(cEP, size))
		served = append(served, sEP)
	}
	return clients, StartRPCServer(b, serverCore, size, served)
}

// mixedOnCore builds the Fig. 11 scenario on core 0 of each host: one
// long flow plus nShort RPC connections whose clients and server share
// the long flow's cores. With no shorts there are no clients and no
// server.
func mixedOnCore(a, b *core.Host, nShort int, size units.Bytes) (*LongFlow, []*RPCClient, *RPCServer) {
	sEP, rEP := core.OpenConn(a, 0, b, 0)
	lf := StartLongFlow(sEP, rEP)
	if nShort == 0 {
		return lf, nil, nil
	}
	var clients []*RPCClient
	var served []*core.Endpoint
	for i := 0; i < nShort; i++ {
		cEP, svEP := core.OpenConn(a, 0, b, 0)
		clients = append(clients, StartRPCClient(cEP, size))
		served = append(served, svEP)
	}
	return lf, clients, StartRPCServer(b, 0, size, served)
}

func TestLongFlowMovesData(t *testing.T) {
	eng, a, b := newPair(t)
	sEP, rEP := core.OpenConn(a, 0, b, 0)
	lf := StartLongFlow(sEP, rEP)
	eng.Run(sim.Time(20 * time.Millisecond))
	st := lf.Receiver.Conn().Stats()
	if st.DeliveredBytes < 10*units.MB {
		t.Errorf("long flow delivered only %v in 20ms", st.DeliveredBytes)
	}
	// Copied lags Delivered by exactly the un-read receive queue.
	if b.Copied()+lf.Receiver.Conn().Readable() != st.DeliveredBytes {
		t.Errorf("copied %v + queued %v != delivered %v",
			b.Copied(), lf.Receiver.Conn().Readable(), st.DeliveredBytes)
	}
}

func TestRPCPingPong(t *testing.T) {
	eng, a, b := newPair(t)
	clients, srv := rpcIncast(a, b, 4, 0, 4096)
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
	clients, _ := rpcIncast(a, b, 2, 0, 65536)
	eng.Run(sim.Time(20 * time.Millisecond))
	for _, c := range clients {
		if c.Completed == 0 {
			t.Error("64KB RPC client stalled")
		}
	}
}

func TestMixedOnCore(t *testing.T) {
	eng, a, b := newPair(t)
	lf, clients, srv := mixedOnCore(a, b, 4, 4096)
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
	lf, clients, srv := mixedOnCore(a, b, 0, 4096)
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
	lfAlone, _, _ := mixedOnCore(a1, b1, 0, 4096)
	eng1.Run(sim.Time(20 * time.Millisecond))
	alone := lfAlone.Receiver.Conn().Stats().DeliveredBytes

	eng2, a2, b2 := newPair(t)
	lfMixed, _, _ := mixedOnCore(a2, b2, 16, 4096)
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
