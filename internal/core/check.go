package core

import (
	"strings"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/cpumodel"
	"hostsim/internal/wire"
)

// AttachChecker registers the conservation-law audit rules for a cluster
// on ck and arms each host's cycle ledger. Call before the simulation
// runs; the rules are pure reads, so a checked run follows the exact
// trajectory of an unchecked one.
//
// The laws, each exact at event boundaries:
//
//   - wire: per fabric egress link, frames (and payload bytes) sent =
//     delivered + loss-dropped + in flight;
//   - fabric-port: per switch port, every frame entering the ingress side
//     is either forwarded to an egress queue or a counted shared-buffer
//     drop;
//   - nic-rx: per host, payload delivered by the inbound egress link =
//     NIC RxBytes + ring-dropped bytes, and RxBytes = bytes handed up the
//     stack + ring backlog + GRO-held; posted descriptors stay in
//     [0, RxRing];
//   - tcp-seqspace: per connection, sequence bookkeeping is internally
//     consistent (see tcp.Conn.CheckInvariants) and cross-host
//     sndUna <= peer rcvNxt <= sndNxt;
//   - skb-pool / frame-pool: every buffer handed out by the cluster's
//     shared pools is accounted for by a live queue, an in-flight
//     counter, or (skbs only) a counted unsteered skb; a frame the
//     network drops goes straight back to the pool;
//   - cycles: per host, the charge log's per-category tally reconciles
//     exactly with the core Breakdown accounting, and busy time matches
//     the cycle total within per-item truncation slack;
//   - dca: DDIO occupancy never exceeds the configured L3 share.
func AttachChecker(ck *check.Checker, c *Cluster) {
	hosts := c.hosts
	for _, h := range hosts {
		h.chkLedger = &check.CycleLedger{}
		h.installChargeLog()
	}
	names := make([]string, len(hosts))
	linkNames := make([]string, len(hosts))
	links := make([]*wire.Link, len(hosts))
	for i, h := range hosts {
		names[i] = h.name
		linkNames[i] = "fabric->" + h.name
		links[i] = c.fab.Port(i).Out()
	}
	scope := strings.Join(names, "/")

	ck.AddRule("wire-conservation", func(fail check.FailFunc) {
		for i, l := range links {
			wireConservation(fail, linkNames[i], l)
		}
	})
	ck.AddRule("fabric-port-conservation", func(fail check.FailFunc) {
		for i, h := range hosts {
			st := c.fab.Port(i).Stats()
			if st.In != st.Forwarded+st.BufDropped {
				fail("fabric port %d (%s): %d frames in != %d forwarded + %d buffer-dropped (leak of %d)",
					i, h.name, st.In, st.Forwarded, st.BufDropped,
					st.In-st.Forwarded-st.BufDropped)
			}
			if st.InPayload != st.ForwardedPayload+st.BufDroppedBytes {
				fail("fabric port %d (%s): %d payload bytes in != %d forwarded + %d buffer-dropped (leak of %d)",
					i, h.name, st.InPayload, st.ForwardedPayload, st.BufDroppedBytes,
					st.InPayload-st.ForwardedPayload-st.BufDroppedBytes)
			}
		}
		if occ := c.fab.Occupancy(); occ < 0 {
			fail("fabric: negative shared-buffer occupancy %d", occ)
		}
	})
	ck.AddRule("nic-rx-conservation", func(fail check.FailFunc) {
		for i, h := range hosts {
			nicRxConservation(fail, h, links[i])
		}
	})
	ck.AddRule("tcp-seqspace", func(fail check.FailFunc) {
		for _, h := range hosts {
			tcpSeqSpace(fail, h)
		}
	})
	ck.AddRule("skb-pool-conservation", func(fail check.FailFunc) {
		skbConservation(fail, scope, hosts)
	})
	ck.AddRule("frame-pool-conservation", func(fail check.FailFunc) {
		frameConservation(fail, scope, hosts, links)
	})
	ck.AddRule("cycle-conservation", func(fail check.FailFunc) {
		for _, h := range hosts {
			cycleConservation(fail, h)
		}
	})
	ck.AddRule("dca-occupancy", func(fail check.FailFunc) {
		for _, h := range hosts {
			dcaOccupancy(fail, h)
		}
	})
}

func wireConservation(fail check.FailFunc, name string, l *wire.Link) {
	st := l.Stats()
	frames, payload := l.InFlight()
	if frames < 0 || payload < 0 {
		fail("link %s: negative in-flight (%d frames, %d bytes)", name, frames, payload)
	}
	if st.Sent != st.Delivered+st.Dropped+frames {
		fail("link %s: %d frames sent != %d delivered + %d dropped + %d in flight (leak of %d)",
			name, st.Sent, st.Delivered, st.Dropped, frames,
			st.Sent-st.Delivered-st.Dropped-frames)
	}
	if st.SentPayload != st.DeliveredPayload+st.DroppedPayload+payload {
		fail("link %s: %d payload bytes sent != %d delivered + %d dropped + %d in flight (leak of %d)",
			name, st.SentPayload, st.DeliveredPayload, st.DroppedPayload, payload,
			st.SentPayload-st.DeliveredPayload-st.DroppedPayload-payload)
	}
}

func nicRxConservation(fail check.FailFunc, h *Host, inbound *wire.Link) {
	st := h.NIC.Stats()
	if got := inbound.Stats().DeliveredPayload; got != st.RxBytes+st.RxDroppedBytes {
		fail("host %s: link delivered %d payload bytes but NIC accounts %d accepted + %d ring-dropped",
			h.name, got, st.RxBytes, st.RxDroppedBytes)
	}
	_, backlogB := h.NIC.RxBacklog()
	_, groB := h.NIC.GROHeld()
	if st.RxBytes != st.RxDelivered+backlogB+groB {
		fail("host %s: NIC accepted %d bytes != %d delivered up + %d ring backlog + %d GRO-held (leak of %d)",
			h.name, st.RxBytes, st.RxDelivered, backlogB, groB,
			st.RxBytes-st.RxDelivered-backlogB-groB)
	}
	ring := h.NIC.Config().RxRing
	if lo, hi := h.NIC.PostedBounds(); lo < 0 || hi > ring {
		fail("host %s: posted descriptors out of bounds: [%d, %d] not within [0, %d]",
			h.name, lo, hi, ring)
	}
}

// tcpSeqSpace audits h's endpoints in tx-flow order, so failures are
// reported deterministically: each connection's own sequence bookkeeping,
// and sndUna <= rcvNxt <= sndNxt against the peer endpoint receiving the
// flow, wherever the cluster placed it.
func tcpSeqSpace(fail check.FailFunc, h *Host) {
	for _, ep := range h.eps {
		ep.conn.CheckInvariants(fail)
		pep := h.flows.ends[ep.txFlow].rx
		una, nxt := ep.conn.SndUna(), ep.conn.SndNxt()
		rcv := pep.conn.RcvNxt()
		if una > rcv || rcv > nxt {
			fail("tcp flow %d: cross-host sequence drift: %s sndUna %d, %s rcvNxt %d, sndNxt %d "+
				"(want sndUna <= rcvNxt <= sndNxt)",
				ep.txFlow, h.name, una, pep.host.name, rcv, nxt)
		}
	}
}

func skbConservation(fail check.FailFunc, scope string, hosts []*Host) {
	pool := hosts[0].NIC.SKBPool()
	var held int64
	for _, h := range hosts {
		groN, _ := h.NIC.GROHeld()
		held += int64(groN)
		for _, ep := range h.eps {
			held += int64(ep.conn.RecvQLen() + ep.conn.OOOLen())
		}
		held += h.unsteered + h.rpsInFlight
	}
	if out := pool.Outstanding(); out != held {
		fail("skb pool: %d outstanding but only %d accounted for "+
			"(gro+recvq+ooo+unsteered+rps across %s) — %d skbs leaked",
			out, held, scope, out-held)
	}
}

// frameConservation audits the shared frame pool over a cluster's
// hosts: every outstanding frame must sit in a NIC Tx queue, an Rx
// backlog, or on a wire. A frame the switch drops (loss or shared-buffer
// admission) is returned to the pool by the sending NIC, so it is not
// outstanding.
func frameConservation(fail check.FailFunc, scope string, hosts []*Host, links []*wire.Link) {
	fp := hosts[0].NIC.FramePool()
	var held int64
	for _, h := range hosts {
		txN, _ := h.NIC.TxQueued()
		backlogN, _ := h.NIC.RxBacklog()
		held += int64(txN + backlogN)
	}
	for _, l := range links {
		inflight, _ := l.InFlight()
		held += inflight
	}
	if out := fp.Outstanding(); out != held {
		fail("frame pool: %d outstanding but only %d accounted for "+
			"(txq+rx backlog+wire across %s) — %d frames leaked",
			out, held, scope, out-held)
	}
}

func cycleConservation(fail check.FailFunc, h *Host) {
	led := h.chkLedger.Total()
	acct := h.Sys.TotalBreakdown()
	if led != acct {
		for _, cat := range cpumodel.Categories() {
			if led[cat] != acct[cat] {
				fail("host %s: category %v accounts %d cycles but the charge log saw %d (drift %+d)",
					h.name, cat, acct[cat], led[cat], int64(acct[cat])-int64(led[cat]))
			}
		}
		return
	}
	busy := h.Sys.TotalBusy()
	exact := acct.Total().Duration(h.spec.Frequency)
	slack := time.Duration(h.Sys.CompletedItems() + 1) // 1ns truncation per item
	if diff := exact - busy; diff < -slack || diff > slack {
		fail("host %s: busy time %v drifted from cycle total %v by %v (allowed slack %v over %d items)",
			h.name, busy, exact, diff, slack, h.Sys.CompletedItems())
	}
}

func dcaOccupancy(fail check.FailFunc, h *Host) {
	if h.DCA == nil {
		return
	}
	if res, capacity := h.DCA.Resident(), h.DCA.Capacity(); res < 0 || res > capacity {
		fail("host %s: DDIO occupancy %d pages outside [0, %d]", h.name, res, capacity)
	}
}
