package core

import (
	"fmt"
	"time"

	"hostsim/internal/fabric"
	"hostsim/internal/nic"
	"hostsim/internal/skb"
)

// Cluster is N hosts attached to a single-stage switch fabric — the
// generalization of the Connect host pair. Construction wires every
// host's NIC to its fabric ingress port and shares the fast-path pools
// and the flow table (ids and endpoints by id) cluster-wide.
//
// The pools are cluster-wide (not per-host) for the same reason the pair
// shares them: a frame is born on one host and dies on another, so only a
// pool spanning every producer and consumer stays balanced. The pool is a
// plain free list — its scope changes no allocation behavior, only where
// recycled buffers may resurface, which the conservation checker audits
// cluster-wide.
type Cluster struct {
	hosts []*Host
	fab   *fabric.Fabric
}

// ConnectFabric attaches hosts to a new switch fabric and instantiates
// their NICs. Call exactly once per host set, before opening connections.
// Zero-valued fcfg.Ports/LinkRate/Delay default to the host count and the
// machine spec's link rate and one-way delay, so a default fabric's ports
// behave exactly like the direct link.
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
	c.fab = fabric.New(hosts[0].eng, fcfg, func(port int, f *skb.Frame) {
		c.hosts[port].NIC.ReceiveFromWire(f)
	})
	// Cluster-wide pools and flow table, exactly as Connect scopes them to
	// the pair.
	skbs, frames := &skb.Pool{}, &skb.FramePool{}
	flows := hosts[0].flows
	for i, h := range hosts {
		h.NIC = nic.New(h.eng, h.Sys, h.Alloc, h.DCA, h.opts.nicConfig(), c.fab.Port(i), h.deliver)
		h.NIC.SetTxComplete(h.txComplete)
		h.NIC.SetPools(skbs, frames)
		h.flows = flows
		h.installSteering()
	}
	return c
}

// Hosts returns the attached hosts in port order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Fabric returns the switch.
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }

// OpenConn opens a connection from aCore of host index a to bCore of host
// index b and registers both flow directions with the fabric's routing
// table. The first returned endpoint is the a-side.
func (c *Cluster) OpenConn(a, aCore, b, bCore int) (*Endpoint, *Endpoint) {
	if a == b {
		panic(fmt.Sprintf("core: fabric connection %d->%d loops back to its own host", a, b))
	}
	epA, epB := OpenConn(c.hosts[a], aCore, c.hosts[b], bCore)
	// Both directions of the connection share the same two attachment
	// ports; pure ACKs traverse the fabric in reverse, which the
	// ingress-exclusion routing rule handles without per-frame state.
	c.fab.Register(epA.TxFlow(), a, b)
	c.fab.Register(epA.RxFlow(), b, a)
	return epA, epB
}
