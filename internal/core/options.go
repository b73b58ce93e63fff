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

	"hostsim/internal/exec"
	"hostsim/internal/mem"
	"hostsim/internal/nic"
	"hostsim/internal/tcp"
	"hostsim/internal/topology"
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

// Stack mirrors the paper's stack configuration knobs.
type Stack struct {
	TSO         bool   // hardware segmentation offload
	GSO         bool   // software segmentation when TSO is off
	GRO         bool   // software receive aggregation
	LRO         bool   // hardware receive aggregation (instead of GRO)
	JumboFrames bool   // 9000B MTU
	ARFS        bool   // accelerated receive flow steering
	DCA         bool   // DDIO into the NIC-local L3
	IOMMU       bool   // IOMMU map/unmap per DMA page
	CC          string // "cubic" (default), "reno", "dctcp", "bbr"

	// Steering overrides the flow steering policy: "arfs", "worst"
	// (the paper's deterministic aRFS-off pinning), "rss", "rfs"
	// (software flow steering), "rps" (software packet steering) or
	// "same-numa" (IRQs on a different core of the app's NUMA node).
	// Empty derives from the ARFS flag: arfs when set, worst otherwise.
	Steering string

	// ZeroCopyTx enables MSG_ZEROCOPY-style transmission (§4 of the
	// paper): application pages are pinned and DMAed directly, skipping
	// the user-to-kernel copy at a small pin/completion cost.
	ZeroCopyTx bool
	// ZeroCopyRx enables the paper's mmap-based receive path: payload
	// pages are mapped into the application instead of copied, at a
	// per-page remap cost.
	ZeroCopyRx bool

	// DCAAwareDRS caps receive-buffer autotuning at the DDIO capacity —
	// the paper's §4 proposal that buffer tuning should account for L3
	// size. Ignored when RcvBufBytes pins the buffer.
	DCAAwareDRS bool

	// RcvSchedulerK enables a Homa/pHost-inspired receiver-driven
	// scheduler (§4): at most K connections per receiving core hold a
	// window at a time, rotated every millisecond. 0 = off; negative is
	// an error.
	RcvSchedulerK int

	RxDescriptors int   // NIC Rx ring size; 0 = 1024
	RcvBufBytes   int64 // fixed TCP receive buffer; 0 = autotune (max 6MB)
	SndBufBytes   int64 // send buffer; 0 = 4MB
}

// AllOptimizations returns the paper's fully optimized stack: TSO/GRO,
// jumbo frames, aRFS, DCA on, IOMMU off, CUBIC.
func AllOptimizations() Stack {
	return Stack{TSO: true, GSO: true, GRO: true, JumboFrames: true, ARFS: true, DCA: true, CC: "cubic"}
}

// NoOptimizations returns the paper's baseline configuration (GSO
// disabled as in their modified kernel, MTU 1500, worst-case steering).
func NoOptimizations() Stack {
	return Stack{DCA: true, CC: "cubic"}
}

// Tuning exposes the simulator's internal model knobs for ablation
// studies. Zero values keep the calibrated defaults; -1 disables a
// mechanism where noted. Any other negative value, and a DCAHazardFactor
// that is NaN or infinite, is an error.
type Tuning struct {
	TSQBytes         int64         // per-connection qdisc bound (default 256KB; >= 0)
	SchedGranularity time.Duration // scheduler wakeup granularity (default 250us; >= 0)
	ModerationDelay  time.Duration // NIC IRQ coalescing delay (default 12us; >= 0)
	PagesetCap       int           // per-core pageset capacity (default 512; -1 = none, else >= 0)
	DCAHazardFactor  float64       // descriptor eviction hazard scale (default 0.035; -1 = off, else finite and >= 0)
}

// Validate checks a stack and its tuning: NewCluster panics on exactly
// the configurations it rejects.
func Validate(s Stack, t Tuning) error {
	_, err := validate(s, t)
	return err
}

// validate checks s and t and returns the steering mode s names.
func validate(s Stack, t Tuning) (SteeringMode, error) {
	var steer SteeringMode
	switch s.Steering {
	case "":
		steer = SteerWorstCase
		if s.ARFS {
			steer = SteerARFS
		}
	case "arfs":
		steer = SteerARFS
	case "worst":
		steer = SteerWorstCase
	case "rss":
		steer = SteerRSSHash
	case "rfs":
		steer = SteerRFS
	case "rps":
		steer = SteerRPS
	case "same-numa":
		steer = SteerSameNUMA
	default:
		// Stack is public as hostsim.Stack, so its slug error says so.
		return 0, fmt.Errorf("hostsim: unknown steering %q", s.Steering)
	}
	seg := segmentBytes(s)
	switch {
	case s.LRO && s.GRO:
		return 0, fmt.Errorf("core: LRO and GRO are mutually exclusive")
	case s.RxDescriptors < 0:
		return 0, fmt.Errorf("core: negative RxDescriptors")
	case s.RcvBufBytes < 0:
		return 0, fmt.Errorf("core: negative RcvBufBytes")
	case s.SndBufBytes < 0:
		return 0, fmt.Errorf("core: negative SndBufBytes")
	case s.SndBufBytes > 0 && units.Bytes(s.SndBufBytes) < seg:
		// TCP never splits a transmit skb across the send buffer.
		return 0, fmt.Errorf("core: SndBufBytes %d below the %d-byte transmit skb", s.SndBufBytes, seg)
	case s.RcvSchedulerK < 0:
		return 0, fmt.Errorf("core: negative RcvSchedulerK")
	case t.ModerationDelay < 0:
		return 0, fmt.Errorf("core: negative ModerationDelay")
	case t.TSQBytes < 0:
		return 0, fmt.Errorf("core: negative TSQBytes")
	case t.SchedGranularity < 0:
		return 0, fmt.Errorf("core: negative SchedGranularity")
	case t.PagesetCap < -1:
		return 0, fmt.Errorf("core: PagesetCap %d below -1 (none)", t.PagesetCap)
	case !(t.DCAHazardFactor == -1 || t.DCAHazardFactor >= 0 && t.DCAHazardFactor <= math.MaxFloat64):
		// The negated form also rejects NaN.
		return 0, fmt.Errorf("core: DCAHazardFactor %v is neither -1 (off) nor finite and >= 0", t.DCAHazardFactor)
	}
	switch s.CC {
	case "", "cubic", "reno", "dctcp", "bbr":
	default:
		return 0, fmt.Errorf("core: unknown congestion control %q", s.CC)
	}
	return steer, nil
}

// mtu returns the wire MTU: 9000B with jumbo frames, 1500B otherwise.
func mtu(s Stack) units.Bytes {
	if s.JumboFrames {
		return 9000
	}
	return 1500
}

// segmentBytes returns the transmit skb size: 64KB aggregates under
// TSO/GSO, a single MSS otherwise (the paper's "no optimizations" mode).
func segmentBytes(s Stack) units.Bytes {
	if s.TSO || s.GSO {
		return 64 * units.KB
	}
	return mtu(s) - nic.FrameHeader
}

// stackSettings is a Stack and its Tuning resolved for one cluster: the
// steering slug parsed and every zero-means-default and -1-means-off
// rule applied. Each host holds a copy.
type stackSettings struct {
	Stack
	steer       SteeringMode
	nic         nic.Config
	tcp         tcp.Config    // every connection's config before tcp.Init
	granularity time.Duration // scheduler wakeup granularity
	pagesetCap  int           // per-core pageset capacity in pages
}

// resolve checks s and t and resolves them for hosts of spec.
func resolve(s Stack, t Tuning, spec topology.MachineSpec) (stackSettings, error) {
	steer, err := validate(s, t)
	if err != nil {
		return stackSettings{}, err
	}
	c := stackSettings{Stack: s, steer: steer, nic: nic.DefaultConfig(), tcp: tcp.DefaultConfig(mtu(s) - nic.FrameHeader),
		granularity: exec.DefaultGranularity, pagesetCap: mem.DefaultPagesetCap}
	c.nic.MTU = mtu(s)
	c.nic.TSO, c.nic.GRO, c.nic.LRO = s.TSO, s.GRO, s.LRO
	if s.RxDescriptors > 0 {
		c.nic.RxRing = s.RxDescriptors
	}
	if t.ModerationDelay > 0 {
		c.nic.ModerationDelay = t.ModerationDelay
	}
	if t.DCAHazardFactor > 0 {
		c.nic.DCAHazardFactor = t.DCAHazardFactor
	} else if t.DCAHazardFactor == -1 {
		c.nic.DCAHazardFactor = 0
	}
	c.tcp.SegmentBytes = segmentBytes(s)
	if s.SndBufBytes > 0 {
		c.tcp.SndBuf = units.Bytes(s.SndBufBytes)
	}
	if t.TSQBytes > 0 {
		c.tcp.TSQBytes = units.Bytes(t.TSQBytes)
	}
	if s.RcvBufBytes > 0 {
		// The paper's override pins tcp_rmem, i.e. sk_rcvbuf itself (half
		// of which is advertised as window, per tcp_adv_win_scale=1).
		c.tcp.RcvBuf = units.Bytes(s.RcvBufBytes)
		c.tcp.RcvBufMax = 0 // fixed, as in the Fig. 3e/3f overrides
	} else if s.DCAAwareDRS {
		// §4 prototype: cap autotuning at the DDIO capacity so the
		// advertised window (= half the buffer) stays within ~half the
		// DCA slice and DMAed data survives until the copy.
		c.tcp.RcvBufMax = spec.DCACapacity()
	}
	if t.SchedGranularity > 0 {
		c.granularity = t.SchedGranularity
	}
	if t.PagesetCap != 0 {
		c.pagesetCap = max(t.PagesetCap, 0) // -1: no pageset
	}
	return c, nil
}
