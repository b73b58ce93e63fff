package workload

import (
	"hostsim/internal/core"
	"hostsim/internal/exec"
	"hostsim/internal/units"
)

// RPCClient is one netperf-style ping-pong client: it writes a request of
// Size bytes, waits for the full Size-byte response, and repeats, over a
// long-running connection.
type RPCClient struct {
	EP        *core.Endpoint
	Size      units.Bytes
	Completed int64 // responses fully received

	th        *exec.Thread
	awaiting  units.Bytes // response bytes still expected
	writeOwed units.Bytes // request bytes not yet accepted by the socket
}

// StartRPCClient attaches a ping-pong client to ep and starts it.
func StartRPCClient(ep *core.Endpoint, size units.Bytes) *RPCClient {
	if size <= 0 {
		panic("workload: non-positive RPC size")
	}
	c := &RPCClient{EP: ep, Size: size}
	cCore := ep.Host().Sys.Core(ep.AppCore())
	c.th = cCore.NewThread("rpc-client", c.step)
	ep.SetNotify(core.Notify{
		Readable: func(ctx *exec.Ctx, _ *core.Endpoint) { ctx.Wake(c.th) },
		Writable: func(ctx *exec.Ctx, _ *core.Endpoint) { ctx.Wake(c.th) },
	})
	c.th.Wake()
	return c
}

func (c *RPCClient) step(ctx *exec.Ctx) {
	// Finish an in-progress request write first.
	if c.writeOwed > 0 {
		w := c.EP.Write(ctx, c.writeOwed)
		c.writeOwed -= w
		if c.writeOwed > 0 {
			ctx.Block() // wait for sndbuf space
		}
		return
	}
	// Await the response.
	if c.awaiting > 0 {
		n := c.EP.Read(ctx, c.awaiting)
		c.awaiting -= n
		if c.awaiting > 0 {
			ctx.Block()
			return
		}
		c.Completed++
	}
	// Issue the next request.
	c.awaiting = c.Size
	w := c.EP.Write(ctx, c.Size)
	if w < c.Size {
		c.writeOwed = c.Size - w
		ctx.Block()
	}
}

// RPCServer serves ping-pong requests, echoing a Size-byte response per
// Size-byte request. Like netperf, each connection is served by its own
// process — so every request wakes a different thread and pays a context
// switch, exactly the per-RPC scheduling cost the paper's short-flow
// breakdowns show.
type RPCServer struct {
	Size   units.Bytes
	Served int64 // responses fully written

	workers []*rpcWorker
}

// rpcWorker is one per-connection server process.
type rpcWorker struct {
	srv     *RPCServer
	ep      *core.Endpoint
	th      *exec.Thread
	pending units.Bytes // request bytes received, not yet answered
	owed    units.Bytes // response bytes still to write
	wrote   units.Bytes // response bytes written so far
	counted int64
}

// StartRPCServer attaches per-connection server threads on serverCore of
// host h, serving the given endpoints (all must be bound to serverCore).
func StartRPCServer(h *core.Host, serverCore int, size units.Bytes, eps []*core.Endpoint) *RPCServer {
	if size <= 0 {
		panic("workload: non-positive RPC size")
	}
	s := &RPCServer{Size: size}
	for _, ep := range eps {
		if ep.AppCore() != serverCore {
			panic("workload: server endpoint bound to a different core")
		}
		w := &rpcWorker{srv: s, ep: ep}
		w.th = h.Sys.Core(serverCore).NewThread("netserver", w.step)
		ep.SetNotify(core.Notify{
			Readable: func(ctx *exec.Ctx, _ *core.Endpoint) { ctx.Wake(w.th) },
			Writable: func(ctx *exec.Ctx, _ *core.Endpoint) {
				if w.owed > 0 {
					ctx.Wake(w.th)
				}
			},
		})
		s.workers = append(s.workers, w)
	}
	return s
}

func (w *rpcWorker) step(ctx *exec.Ctx) {
	progressed := false
	if n := w.ep.Read(ctx, ReadChunk); n > 0 {
		w.pending += n
		progressed = true
	}
	for w.pending >= w.srv.Size {
		w.pending -= w.srv.Size
		w.owed += w.srv.Size
	}
	if w.owed > 0 {
		if n := w.ep.Write(ctx, w.owed); n > 0 {
			w.owed -= n
			w.wrote += n
			done := int64(w.wrote / w.srv.Size)
			w.srv.Served += done - w.counted
			w.counted = done
			progressed = true
		}
	}
	if !progressed {
		ctx.Block()
	}
}
