// Package core implements the paper's subject: the end-to-end Linux host
// network stack data path of Fig. 1, assembled from the substrate packages
// (exec, mem, cache, nic, tcp, wire) and instrumented exactly the way the
// paper measures it — per-category CPU cycles (Table 1), L3/DDIO cache
// hit rates, NAPI-to-copy latency, and post-GRO skb sizes.
//
// A Host owns cores, a page allocator, a DDIO cache and a NIC; Endpoints
// are sockets bound to application cores. NewCluster builds hosts on a
// switch fabric, each with its NIC (two hosts on a 2-port fabric make the
// paper's testbed pair); OpenConn creates a connection between cores of
// two hosts of one cluster, routed through the fabric, with flow steering
// per the configured policy.
package core

import (
	"fmt"
	"math"
	"time"

	"hostsim/internal/nic"
	"hostsim/internal/units"
)

// SteeringMode selects the receive flow steering policy (Table 2).
type SteeringMode int

const (
	// SteerARFS programs the NIC to deliver each flow to the core its
	// application runs on (accelerated receive flow steering).
	SteerARFS SteeringMode = iota
	// SteerWorstCase pins each flow's IRQ processing to an explicitly
	// chosen core on a NIC-remote NUMA node — the paper's deterministic
	// "aRFS disabled" configuration.
	SteerWorstCase
	// SteerRSSHash hashes flows across all cores (default NIC RSS).
	SteerRSSHash
	// SteerRFS is software receive flow steering: the NIC hashes to an
	// RSS core, whose NAPI then forwards each skb to the application's
	// core for TCP processing (an extra softirq hop and IPI).
	SteerRFS
	// SteerRPS is software receive packet steering: like SteerRFS but
	// the forwarding target is a hash of the flow, not the application
	// core, so socket locks stay contended.
	SteerRPS
	// SteerSameNUMA pins each flow's IRQ processing to a different core
	// on the application's own NUMA node — the middle case of the
	// paper's §3.1 IRQ-mapping analysis (case 2).
	SteerSameNUMA
)

func (s SteeringMode) String() string {
	switch s {
	case SteerARFS:
		return "aRFS"
	case SteerWorstCase:
		return "worst-case"
	case SteerRSSHash:
		return "rss-hash"
	case SteerRFS:
		return "rfs"
	case SteerRPS:
		return "rps"
	case SteerSameNUMA:
		return "same-numa"
	default:
		return "invalid"
	}
}

// Options is the stack configuration under study: the optimization knobs
// of Fig. 3a plus the ablation toggles of later sections.
type Options struct {
	TSO      bool // hardware segmentation offload
	GSO      bool // software segmentation (used when TSO is off)
	GRO      bool // software receive aggregation
	LRO      bool // hardware receive aggregation (instead of GRO)
	Jumbo    bool // 9000B MTU instead of 1500B
	DCA      bool // DDIO: NIC DMAs into the NIC-local L3
	IOMMU    bool // IOMMU map/unmap on every DMA page
	Steering SteeringMode

	CC string // congestion control: "cubic", "dctcp", "bbr", "reno"

	// ZeroCopyTx/ZeroCopyRx enable the §4 "future directions" zero-copy
	// mechanisms: MSG_ZEROCOPY transmission (pin user pages, skip the
	// user-to-kernel copy) and mmap-based reception (remap payload pages
	// into the application instead of copying).
	ZeroCopyTx bool
	ZeroCopyRx bool

	// DCAAwareDRS caps receive-buffer autotuning at the DDIO capacity
	// (so the advertised window stays within ~half the DCA slice) — the
	// §4 proposal that "window size tuning should take into account ...
	// L3 sizes".
	DCAAwareDRS bool

	// RcvSchedulerK, when positive, enables a Homa/pHost-inspired
	// receiver-driven scheduler (§4): on each receiving core at most K
	// connections are granted window at a time, rotated round-robin, each
	// clamped to an equal share of the DCA capacity. Reduces cache
	// contention under incast at the cost of scheduling granularity.
	// 0 = off; negative is invalid.
	RcvSchedulerK int

	RxRing      int         // NIC Rx descriptors per queue (0 = 1024)
	RcvBufBytes units.Bytes // fixed TCP receive buffer; 0 = autotune to 6MB
	SndBufBytes units.Bytes // socket send buffer (0 = 4MB)

	// ModerationDelay overrides the IRQ coalescing delay (0 = the NIC
	// default; negative is invalid).
	ModerationDelay time.Duration

	// ---- advanced model knobs (0 = defaults), used by the ablation
	// experiments to isolate individual design choices. Negative values
	// are invalid except -1 where noted.
	TSQBytes         units.Bytes   // per-connection unsent-in-qdisc bound
	SchedGranularity time.Duration // CFS-like wakeup/preemption granularity
	PagesetCap       int           // per-core pageset capacity (-1 = none)
	DCAHazardFactor  float64       // descriptor-count eviction hazard scale, finite (-1 = off)
}

// AllOpts returns the paper's "all optimizations enabled" configuration:
// TSO/GRO + jumbo frames + aRFS, DCA on, IOMMU off, CUBIC.
func AllOpts() Options {
	return Options{
		TSO: true, GSO: true, GRO: true, Jumbo: true,
		DCA: true, Steering: SteerARFS, CC: "cubic",
	}
}

// NoOpts returns the paper's baseline: no segmentation offload (GSO
// disabled as in the paper's modified kernel), no aggregation, 1500B MTU,
// worst-case IRQ steering. DCA stays on (the testbed default).
func NoOpts() Options {
	return Options{DCA: true, Steering: SteerWorstCase, CC: "cubic"}
}

// MTU returns the configured MTU.
func (o Options) MTU() units.Bytes {
	if o.Jumbo {
		return 9000
	}
	return 1500
}

// MSS returns the wire payload per frame.
func (o Options) MSS() units.Bytes { return o.MTU() - nic.FrameHeader }

// SegmentBytes returns the transmit skb size: 64KB aggregates under
// TSO/GSO, a single MSS otherwise (the paper's "no optimizations" mode).
func (o Options) SegmentBytes() units.Bytes {
	if o.TSO || o.GSO {
		return 64 * units.KB
	}
	return o.MSS()
}

// Validate checks internal consistency.
func (o Options) Validate() error {
	switch {
	case o.LRO && o.GRO:
		return fmt.Errorf("core: LRO and GRO are mutually exclusive")
	case o.RxRing < 0:
		return fmt.Errorf("core: negative RxRing")
	case o.RcvBufBytes < 0 || o.SndBufBytes < 0:
		return fmt.Errorf("core: negative buffer size")
	case o.SndBufBytes > 0 && o.SndBufBytes < o.SegmentBytes():
		// TCP never splits a transmit skb across the send buffer.
		return fmt.Errorf("core: SndBufBytes %d below the %d-byte transmit skb", o.SndBufBytes, o.SegmentBytes())
	case o.Steering < SteerARFS || o.Steering > SteerSameNUMA:
		return fmt.Errorf("core: invalid steering mode")
	case o.RcvSchedulerK < 0:
		return fmt.Errorf("core: negative RcvSchedulerK")
	case o.ModerationDelay < 0:
		return fmt.Errorf("core: negative ModerationDelay")
	case o.TSQBytes < 0:
		return fmt.Errorf("core: negative TSQBytes")
	case o.SchedGranularity < 0:
		return fmt.Errorf("core: negative SchedGranularity")
	case o.PagesetCap < -1:
		return fmt.Errorf("core: PagesetCap %d below -1 (none)", o.PagesetCap)
	case !(o.DCAHazardFactor == -1 || o.DCAHazardFactor >= 0 && o.DCAHazardFactor <= math.MaxFloat64):
		// The negated form also rejects NaN.
		return fmt.Errorf("core: DCAHazardFactor %v is neither -1 (off) nor finite and >= 0", o.DCAHazardFactor)
	}
	switch o.CC {
	case "", "cubic", "reno", "dctcp", "bbr":
	default:
		return fmt.Errorf("core: unknown congestion control %q", o.CC)
	}
	return nil
}

// nicConfig translates Options into the NIC configuration.
func (o Options) nicConfig() nic.Config {
	cfg := nic.DefaultConfig()
	cfg.MTU = o.MTU()
	cfg.TSO = o.TSO
	cfg.GRO = o.GRO
	cfg.LRO = o.LRO
	if o.RxRing > 0 {
		cfg.RxRing = o.RxRing
	}
	if o.ModerationDelay > 0 {
		cfg.ModerationDelay = o.ModerationDelay
	}
	if o.DCAHazardFactor > 0 {
		cfg.DCAHazardFactor = o.DCAHazardFactor
	} else if o.DCAHazardFactor == -1 {
		cfg.DCAHazardFactor = 0
	}
	return cfg
}
