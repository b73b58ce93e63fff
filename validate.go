package hostsim

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hostsim/internal/core"
	"hostsim/internal/cpumodel"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// pairNames names the default topology's two hosts (Config.Fabric nil).
var pairNames = []string{"sender", "receiver"}

// maxLinkGbps is the largest LinkGbps whose bit rate fits in an int64.
const maxLinkGbps = math.MaxInt64 / int64(units.Gbps)

// maxKB is the largest KB count whose byte size fits in an int64.
const maxKB = math.MaxInt64 / int64(units.KB)

// plan is a validated run: the Config with its windows defaulted, the
// model inputs derived from it, and the armed observers in attach order.
type plan struct {
	cfg      Config
	tuning   Tuning // Config.Tuning, zero when nil
	costs    *cpumodel.Costs
	spec     topology.MachineSpec
	fab      FabricOptions // the topology; the testbed pair when Config.Fabric is nil
	conns    []conn        // the workload's connections, in opening order
	obs      []observer
	preBuild int // obs[:preBuild] attach before the workload is built
}

// validate checks every input of a run before anything is built: the
// Config (windows, loss, stack, tuning, cost scales, link and topology),
// the workload, which it places on the topology (see Workload.place), and
// each armed observer's options. Run builds nothing until it passes, so
// bad input is an error and never reaches a constructor's assertions.
func validate(cfg Config, wl Workload) (*plan, error) {
	if cfg.Warmup < 0 || cfg.Duration < 0 {
		return nil, fmt.Errorf("hostsim: negative Warmup or Duration")
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * time.Millisecond
	}
	if cfg.Duration == 0 {
		cfg.Duration = 30 * time.Millisecond
	}
	if cfg.Duration > math.MaxInt64-cfg.Warmup {
		return nil, fmt.Errorf("hostsim: Warmup + Duration overflows")
	}
	// The negated form also rejects NaN.
	if !(cfg.LossRate >= 0 && cfg.LossRate <= 1) {
		return nil, fmt.Errorf("hostsim: loss rate %v outside [0,1]", cfg.LossRate)
	}
	var tuning Tuning
	if cfg.Tuning != nil {
		tuning = *cfg.Tuning
	}
	if err := core.Validate(cfg.Stack, tuning); err != nil {
		return nil, err
	}
	costs := cpumodel.Default()
	// Apply cost scales in sorted-key order so a bad map reports the
	// same first error on every run.
	for _, name := range sortedKeys(cfg.CostScale) {
		if err := costs.Scale(name, cfg.CostScale[name]); err != nil {
			return nil, fmt.Errorf("hostsim: %w", err)
		}
	}
	spec := topology.Default()
	if cfg.LinkGbps < 0 {
		return nil, fmt.Errorf("hostsim: negative LinkGbps")
	}
	if int64(cfg.LinkGbps) > maxLinkGbps {
		return nil, fmt.Errorf("hostsim: LinkGbps %d exceeds %d", cfg.LinkGbps, maxLinkGbps)
	}
	if cfg.LinkGbps > 0 {
		spec.LinkRate = units.BitRate(cfg.LinkGbps) * units.Gbps
	}
	if err := checkKB("ECNMarkKB", cfg.ECNMarkKB); err != nil {
		return nil, err
	}
	// Topology: every run is a switch fabric. Config.Fabric nil builds the
	// paper's testbed pair, sender and receiver on a 2-port fabric.
	fo := FabricOptions{Hosts: 2, HostNames: pairNames}
	if cfg.Fabric != nil {
		fo = *cfg.Fabric
	}
	if err := fo.validate(); err != nil {
		return nil, err
	}
	conns, err := wl.place(cfg.Fabric != nil, fo.Hosts, spec)
	if err != nil {
		return nil, err
	}
	p := &plan{cfg: cfg, tuning: tuning, costs: costs, spec: spec, fab: fo, conns: conns}
	for _, a := range attachOrder {
		o := a.arm(&p.cfg)
		if o == nil {
			continue
		}
		if err := o.validate(&p.cfg); err != nil {
			return nil, err
		}
		p.obs = append(p.obs, o)
		if !a.afterBuild {
			p.preBuild++
		}
	}
	return p, nil
}

// checkKB checks a KB-denominated option: not negative, and small enough
// that its byte count fits in an int64.
func checkKB(name string, kb int) error {
	if kb < 0 {
		return fmt.Errorf("hostsim: negative %s", name)
	}
	if int64(kb) > maxKB {
		return fmt.Errorf("hostsim: %s %d exceeds %d", name, kb, maxKB)
	}
	return nil
}

func (fo *FabricOptions) validate() error {
	if fo.Hosts < 2 || fo.Hosts > 256 {
		return fmt.Errorf("hostsim: Fabric.Hosts %d outside [2,256]", fo.Hosts)
	}
	if err := checkKB("Fabric.SharedBufferKB", fo.SharedBufferKB); err != nil {
		return err
	}
	if fo.Alpha < 0 {
		return fmt.Errorf("hostsim: negative Fabric.Alpha")
	}
	if math.IsNaN(fo.Alpha) || math.IsInf(fo.Alpha, 0) {
		return fmt.Errorf("hostsim: Fabric.Alpha %v is not finite", fo.Alpha)
	}
	if len(fo.HostNames) != 0 && len(fo.HostNames) != fo.Hosts {
		return fmt.Errorf("hostsim: %d Fabric.HostNames for %d hosts", len(fo.HostNames), fo.Hosts)
	}
	// Names prefix every metric and trace label ("name/..."), so they must
	// be distinct and free of the '/' separator.
	for i, n := range fo.HostNames {
		if strings.Contains(n, "/") {
			return fmt.Errorf("hostsim: Fabric.HostNames[%d] %q contains '/'", i, n)
		}
		for _, m := range fo.HostNames[:i] {
			if m == n {
				return fmt.Errorf("hostsim: duplicate Fabric.HostNames entry %q", n)
			}
		}
	}
	return nil
}
