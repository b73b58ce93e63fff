package core

import (
	"time"

	"hostsim/internal/fabric"
	"hostsim/internal/nic"
	"hostsim/internal/skb"
)

// Cluster is N hosts attached to a single-stage switch fabric — every
// topology hostsim builds, the default sender/receiver pair included (a
// 2-port fabric). Construction wires every host's NIC to its fabric
// ingress port, records each host's port so OpenConn can register routes,
// and shares the fast-path pools and the flow table (ids and endpoints by
// id) cluster-wide.
//
// The pools are cluster-wide (not per-host) because a frame is born on
// one host and dies on another, so only a pool spanning every producer
// and consumer stays balanced. The pool is a plain free list — its scope
// changes no allocation behavior, only where recycled buffers may
// resurface, which the conservation checker audits cluster-wide. The
// flow table is per cluster rather than a package global, so concurrent
// simulations stay independent.
type Cluster struct {
	hosts []*Host
	fab   *fabric.Fabric
}

// ConnectFabric attaches hosts to a new switch fabric and instantiates
// their NICs. Call exactly once per host set, before opening connections.
// Zero-valued fcfg.Ports/LinkRate/Delay default to the host count and the
// machine spec's link rate and one-way delay.
func ConnectFabric(hosts []*Host, fcfg fabric.Config) *Cluster {
	if len(hosts) < 2 {
		panic("core: a fabric needs at least 2 hosts")
	}
	for _, h := range hosts {
		if h.NIC != nil {
			panic("core: host already connected")
		}
	}
	spec := hosts[0].spec
	fcfg.Ports = len(hosts)
	if fcfg.LinkRate == 0 {
		fcfg.LinkRate = spec.LinkRate
	}
	if fcfg.Delay == 0 {
		fcfg.Delay = time.Duration(spec.OneWayDelay) * time.Nanosecond
	}
	c := &Cluster{hosts: hosts}
	c.fab = fabric.New(hosts[0].eng, fcfg, func(port int) func(*skb.Frame) {
		h := hosts[port]
		return func(f *skb.Frame) { h.NIC.ReceiveFromWire(f) }
	})
	skbs, frames := &skb.Pool{}, &skb.FramePool{}
	flows := hosts[0].flows
	for i, h := range hosts {
		h.fab, h.port = c.fab, i
		h.NIC = nic.New(h.eng, h.Sys, h.Alloc, h.DCA, h.opts.nicConfig(), skbs, frames, c.fab.Port(i), h.deliver)
		h.NIC.SetTxComplete(h.txComplete)
		h.flows = flows
		h.installSteering()
	}
	return c
}

// Fabric returns the switch.
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }
