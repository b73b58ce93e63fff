// Package workload implements the applications the paper drives its
// measurements with: iPerf-style long flows and netperf-style ping-pong
// RPCs, each started on a connection the caller opened with core.OpenConn.
//
// Applications are exec threads pinned to cores, performing read/write
// syscalls against core.Endpoints and blocking/waking exactly like their
// real counterparts; all scheduling overhead is accounted by exec.
package workload

import (
	"hostsim/internal/core"
	"hostsim/internal/exec"
	"hostsim/internal/units"
)

// Chunk sizes match the tools the paper uses: iPerf writes and reads in
// 128KB buffers.
const (
	WriteChunk units.Bytes = 128 * units.KB
	ReadChunk  units.Bytes = 128 * units.KB
)

// LongFlow is one iPerf-style bulk transfer: a sender thread pumping an
// endless stream and a receiver thread draining it.
type LongFlow struct {
	Sender   *core.Endpoint
	Receiver *core.Endpoint
	sendTh   *exec.Thread
	recvTh   *exec.Thread
}

// StartLongFlow attaches sender/receiver applications to an open
// connection and starts them.
func StartLongFlow(sender, receiver *core.Endpoint) *LongFlow {
	lf := &LongFlow{Sender: sender, Receiver: receiver}

	sCore := sender.Host().Sys.Core(sender.AppCore())
	lf.sendTh = sCore.NewThread("iperf-send", func(ctx *exec.Ctx) {
		if w := sender.Write(ctx, WriteChunk); w == 0 {
			ctx.Block()
		}
	})
	sender.SetNotify(core.Notify{
		Writable: func(ctx *exec.Ctx, ep *core.Endpoint) { ctx.Wake(lf.sendTh) },
	})

	rCore := receiver.Host().Sys.Core(receiver.AppCore())
	lf.recvTh = rCore.NewThread("iperf-recv", func(ctx *exec.Ctx) {
		if n := receiver.Read(ctx, ReadChunk); n == 0 {
			ctx.Block()
		}
	})
	receiver.SetNotify(core.Notify{
		Readable: func(ctx *exec.Ctx, ep *core.Endpoint) { ctx.Wake(lf.recvTh) },
	})

	lf.sendTh.Wake()
	return lf
}
