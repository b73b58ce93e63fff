package core

import (
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/fabric"
	"hostsim/internal/nic"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/topology"
)

// Cluster is N hosts attached to a single-stage switch fabric — every
// topology hostsim builds, the default sender/receiver pair included (a
// 2-port fabric). NewCluster builds it whole: every host, the fabric and
// every host's NIC wired to its fabric ingress port, with each host's
// port recorded so OpenConn can register routes, and the fast-path pools
// and the flow table (ids and endpoints by id) shared cluster-wide.
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

// NewCluster builds one host per name on eng, all with the same machine,
// cost model, stack and tuning, and attaches them to a new switch fabric,
// host i on port i. The stack and tuning are resolved once, here; a pair
// Validate rejects panics. Zero-valued fcfg.LinkRate/Delay default to the
// machine spec's link rate and one-way delay; fcfg.Ports is the host
// count. Construction draws no random numbers and schedules no events.
func NewCluster(eng *sim.Engine, names []string, spec topology.MachineSpec,
	costs *cpumodel.Costs, stack Stack, tuning Tuning, fcfg fabric.Config) *Cluster {
	if len(names) < 2 {
		panic("core: a fabric needs at least 2 hosts")
	}
	settings, err := resolve(stack, tuning, spec)
	if err != nil {
		panic(err)
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	fcfg.Ports = len(names)
	if fcfg.LinkRate == 0 {
		fcfg.LinkRate = spec.LinkRate
	}
	if fcfg.Delay == 0 {
		fcfg.Delay = time.Duration(spec.OneWayDelay) * time.Nanosecond
	}
	flows := newFlowTable()
	c := &Cluster{hosts: make([]*Host, len(names))}
	for i, name := range names {
		c.hosts[i] = newHost(name, eng, spec, costs, settings, flows)
	}
	c.fab = fabric.New(eng, fcfg, func(port int) func(*skb.Frame) {
		h := c.hosts[port]
		return func(f *skb.Frame) { h.NIC.ReceiveFromWire(f) }
	})
	skbs, frames := &skb.Pool{}, &skb.FramePool{}
	for i, h := range c.hosts {
		h.fab, h.port = c.fab, i
		h.NIC = nic.New(eng, h.Sys, h.Alloc, h.DCA, settings.nic, skbs, frames, c.fab.Port(i),
			h.steering(), h.deliver, h.txComplete)
	}
	return c
}

// Hosts returns the cluster's hosts, host i attached to fabric port i.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Fabric returns the switch.
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }
