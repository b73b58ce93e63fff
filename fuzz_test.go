package hostsim

import (
	"testing"
	"time"
)

// FuzzConfig explores the configuration space with the fail-fast
// invariant checker as its oracle: every generated config is sanitized
// into a valid one, so any Run error — in particular a conservation-law
// Failure — is a real bug. The fuzzer hunts for stack/workload/loss
// combinations whose interleavings leak buffers, drop cycles or corrupt
// TCP sequence state; `go test -fuzz=FuzzConfig` runs it open-ended and
// CI smokes it briefly on every push.
//
// Reproduce a crasher with:
//
//	go test -run 'FuzzConfig/<name>' .
//
// after copying the reported file into testdata/fuzz/FuzzConfig/.
func FuzzConfig(f *testing.F) {
	// seeds: the paper's headline scenarios, compressed; the last covers a
	// 16-host fabric incast against a tight shared buffer.
	f.Add(int64(1), uint16(2000), uint8(1), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0xff), uint8(0), uint8(4), uint8(0), uint16(0), uint8(0))
	f.Add(int64(7), uint16(1500), uint8(8), uint8(2), uint8(2), uint8(1), uint16(150), uint16(256), uint16(400), uint8(90), uint8(0x3f), uint8(1), uint8(16), uint8(0), uint16(0), uint8(0))
	f.Add(int64(42), uint16(1000), uint8(3), uint8(4), uint8(3), uint8(4), uint16(0), uint16(1024), uint16(0), uint8(0), uint8(0x00), uint8(2), uint8(4), uint8(0), uint16(0), uint8(0))
	f.Add(int64(9), uint16(1200), uint8(2), uint8(2), uint8(0), uint8(1), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0x77), uint8(0), uint8(4), uint8(16), uint16(512), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, durUS uint16, flows, patIdx, ccIdx, steerIdx uint8,
		lossTenthsPermille, ring, rxbufKB uint16, ecnKB, optBits, wlIdx, rpcKB uint8,
		fabHosts uint8, fabBufKB uint16, fabAlphaTenths uint8) {

		patterns := []Pattern{PatternSingle, PatternOneToOne, PatternIncast, PatternOutcast, PatternAllToAll}
		ccs := []string{"cubic", "reno", "dctcp", "bbr"}
		steerings := []string{"", "arfs", "rss", "rfs", "rps", "worst"}

		s := Stack{
			TSO:         optBits&1 != 0,
			GSO:         optBits&2 != 0,
			GRO:         optBits&4 != 0,
			LRO:         optBits&8 != 0,
			JumboFrames: optBits&16 != 0,
			ARFS:        optBits&32 != 0,
			DCA:         optBits&64 != 0,
			IOMMU:       optBits&128 != 0,
			CC:          ccs[int(ccIdx)%len(ccs)],
			Steering:    steerings[int(steerIdx)%len(steerings)],
		}
		if s.LRO {
			s.GRO = false // mutually exclusive
		}
		if ring > 0 {
			s.RxDescriptors = 16 + int(ring)%8177 // [16, 8192]
		}
		if rxbufKB > 0 {
			s.RcvBufBytes = int64(16+int(rxbufKB)%12785) * 1024 // [16KB, 12800KB]
		}

		cfg := Config{
			Stack:     s,
			Seed:      seed,
			LossRate:  float64(lossTenthsPermille%501) / 10000, // [0, 0.05]
			ECNMarkKB: int(ecnKB) % 201,                        // [0, 200]
			Warmup:    2 * time.Millisecond,
			Duration:  time.Duration(500+int(durUS)%2501) * time.Microsecond, // [0.5ms, 3ms]
			Check:     &CheckOptions{},                                       // fail fast: the oracle
		}

		var wl Workload
		switch wlIdx % 3 {
		case 0:
			p := patterns[int(patIdx)%len(patterns)]
			n := 1 + int(flows)%8
			if p == PatternAllToAll {
				n = 1 + n%3 // n^2 flows: keep the grid small
			}
			wl = LongFlowWorkload(p, n)
			wl.RemoteNUMA = p == PatternSingle && optBits&3 == 3
		case 1:
			wl = RPCIncastWorkload(1+int(flows)%16, int64(1+int(rpcKB)%64)*1024)
		case 2:
			wl = MixedWorkload(int(flows)%16, int64(1+int(rpcKB)%64)*1024)
		}

		// fabHosts >= 2 moves a long workload onto the switch fabric
		// (fabric mode supports only long workloads; RPC/mixed and
		// RemoteNUMA stay on the default pair). The same checker oracle
		// audits per-port conservation and the shared-buffer ledger.
		if fabHosts >= 2 && wl.Kind == "long" && !wl.RemoteNUMA {
			hosts := 2 + int(fabHosts)%63 // [2, 64]
			switch wl.Pattern {
			case PatternOneToOne:
				hosts &^= 1 // pairing needs an even host count
			case PatternAllToAll:
				hosts = 2 + hosts%7 // [2, 8]: flow count is quadratic
			}
			cfg.Fabric = &FabricOptions{
				Hosts:          hosts,
				SharedBufferKB: int(fabBufKB) % 4097,              // [0, 4096]
				Alpha:          float64(fabAlphaTenths%41) / 10.0, // [0, 4.0]
			}
		}

		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatalf("sanitized config failed: %v\nconfig: %+v\nworkload: %+v", err, cfg, wl)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations escaped fail-fast mode: %v", res.Violations)
		}
	})
}
