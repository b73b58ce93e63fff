package hostsim

import (
	"fmt"
	"testing"

	"hostsim/internal/topology"
)

// TestPlace pins the connection list Workload.place gives for every shape
// a run can take, at small sizes, and the error it returns for each
// workload it rejects on a topology. The pair sends from host 0 to host
// 1; RemoteNUMA moves the receiving application to core 12, the first
// core of NUMA node 2; the fabric cases spread each hot host's flows over
// its cores and wrap them round-robin when a host has fewer cores than
// flows.
func TestPlace(t *testing.T) {
	long := func(s, sCore, r, rCore int) conn { return conn{s: s, sCore: sCore, r: r, rCore: rCore} }
	rpc := func(s, sCore, r, rCore int) conn { return conn{s: s, sCore: sCore, r: r, rCore: rCore, rpc: true} }
	remote := func(wl Workload) Workload {
		wl.RemoteNUMA = true
		return wl
	}
	segregated := MixedWorkload(2, 4096)
	segregated.Segregate = true
	testbed := topology.Default()
	threeCores := topology.Default()
	threeCores.NUMANodes, threeCores.CoresPerNode = 3, 1

	cases := []struct {
		name   string
		fabric bool
		hosts  int
		spec   topology.MachineSpec
		wl     Workload
		want   []conn
		err    string
	}{
		{"single", false, 2, testbed, LongFlowWorkload(PatternSingle, 1), []conn{long(0, 0, 1, 0)}, ""},
		{"single N 0", false, 2, testbed, LongFlowWorkload(PatternSingle, 0), []conn{long(0, 0, 1, 0)}, ""},
		{"one-to-one", false, 2, testbed, LongFlowWorkload(PatternOneToOne, 3),
			[]conn{long(0, 0, 1, 0), long(0, 1, 1, 1), long(0, 2, 1, 2)}, ""},
		{"incast", false, 2, testbed, LongFlowWorkload(PatternIncast, 3),
			[]conn{long(0, 0, 1, 0), long(0, 1, 1, 0), long(0, 2, 1, 0)}, ""},
		{"outcast", false, 2, testbed, LongFlowWorkload(PatternOutcast, 3),
			[]conn{long(0, 0, 1, 0), long(0, 0, 1, 1), long(0, 0, 1, 2)}, ""},
		{"all-to-all", false, 2, testbed, LongFlowWorkload(PatternAllToAll, 2),
			[]conn{long(0, 0, 1, 0), long(0, 0, 1, 1), long(0, 1, 1, 0), long(0, 1, 1, 1)}, ""},
		{"remote single", false, 2, testbed, remote(LongFlowWorkload(PatternSingle, 1)), []conn{long(0, 0, 1, 12)}, ""},
		{"rpc", false, 2, testbed, RPCIncastWorkload(3, 4096),
			[]conn{rpc(0, 0, 1, 0), rpc(0, 1, 1, 0), rpc(0, 2, 1, 0)}, ""},
		{"remote rpc", false, 2, testbed, remote(RPCIncastWorkload(2, 4096)),
			[]conn{rpc(0, 0, 1, 12), rpc(0, 1, 1, 12)}, ""},
		{"mixed", false, 2, testbed, MixedWorkload(2, 4096),
			[]conn{long(0, 0, 1, 0), rpc(0, 0, 1, 0), rpc(0, 0, 1, 0)}, ""},
		{"segregated mixed", false, 2, testbed, segregated,
			[]conn{long(0, 0, 1, 0), rpc(0, 1, 1, 1), rpc(0, 1, 1, 1)}, ""},
		{"mixed without shorts", false, 2, testbed, MixedWorkload(0, 4096), []conn{long(0, 0, 1, 0)}, ""},
		{"fabric single", true, 3, testbed, LongFlowWorkload(PatternSingle, 7), []conn{long(0, 0, 1, 0)}, ""},
		{"fabric one-to-one", true, 4, testbed, LongFlowWorkload(PatternOneToOne, 0),
			[]conn{long(0, 0, 1, 0), long(2, 0, 3, 0)}, ""},
		{"fabric incast", true, 4, testbed, LongFlowWorkload(PatternIncast, 0),
			[]conn{long(1, 0, 0, 0), long(2, 0, 0, 1), long(3, 0, 0, 2)}, ""},
		{"fabric outcast", true, 4, testbed, LongFlowWorkload(PatternOutcast, 0),
			[]conn{long(0, 0, 1, 0), long(0, 1, 2, 0), long(0, 2, 3, 0)}, ""},
		{"fabric incast wraps the cores", true, 5, threeCores, LongFlowWorkload(PatternIncast, 0),
			[]conn{long(1, 0, 0, 0), long(2, 0, 0, 1), long(3, 0, 0, 2), long(4, 0, 0, 0)}, ""},
		{"fabric outcast wraps the cores", true, 5, threeCores, LongFlowWorkload(PatternOutcast, 0),
			[]conn{long(0, 0, 1, 0), long(0, 1, 2, 0), long(0, 2, 3, 0), long(0, 0, 4, 0)}, ""},
		// Each host numbers its flows toward the other four 0..3, outgoing
		// and incoming alike, and that number is the core.
		{"fabric all-to-all", true, 5, testbed, LongFlowWorkload(PatternAllToAll, 0), []conn{
			long(0, 0, 1, 0), long(0, 1, 2, 0), long(0, 2, 3, 0), long(0, 3, 4, 0),
			long(1, 0, 0, 0), long(1, 1, 2, 1), long(1, 2, 3, 1), long(1, 3, 4, 1),
			long(2, 0, 0, 1), long(2, 1, 1, 1), long(2, 2, 3, 2), long(2, 3, 4, 2),
			long(3, 0, 0, 2), long(3, 1, 1, 2), long(3, 2, 2, 2), long(3, 3, 4, 3),
			long(4, 0, 0, 3), long(4, 1, 1, 3), long(4, 2, 2, 3), long(4, 3, 3, 3),
		}, ""},

		{"unknown pattern", false, 2, testbed, LongFlowWorkload("ring", 2), nil, `hostsim: unknown pattern "ring"`},
		{"single N 2", false, 2, testbed, LongFlowWorkload(PatternSingle, 2), nil,
			"hostsim: single workload N 2 outside [0,1]"},
		{"all-to-all N 0", false, 2, testbed, LongFlowWorkload(PatternAllToAll, 0), nil,
			"hostsim: all-to-all workload N 0 outside [1,24]"},
		{"remote outcast", false, 2, testbed, remote(LongFlowWorkload(PatternOutcast, 2)), nil,
			"hostsim: RemoteNUMA supports the single pattern only"},
		{"rpc without clients", false, 2, testbed, RPCIncastWorkload(0, 4096), nil,
			"hostsim: rpc workload needs RPCClients and RPCSize"},
		{"rpc beyond the cores", false, 2, testbed, RPCIncastWorkload(25, 4096), nil,
			"hostsim: rpc workload RPCClients 25 exceeds 24 client cores"},
		{"negative shorts", false, 2, testbed, MixedWorkload(-1, 4096), nil,
			"hostsim: negative mixed workload MixedShort -1"},
		{"shorts beyond the largest placement", false, 2, testbed, MixedWorkload(256*255, 4096), nil,
			"hostsim: mixed workload MixedShort 65280 exceeds 65279"},
		{"a million shorts", false, 2, testbed, MixedWorkload(1_000_000, 4096), nil,
			"hostsim: mixed workload MixedShort 1000000 exceeds 65279"},
		{"mixed without size", false, 2, testbed, MixedWorkload(1, 0), nil, "hostsim: mixed workload needs RPCSize"},
		{"remote mixed", false, 2, testbed, remote(MixedWorkload(1, 4096)), nil,
			"hostsim: RemoteNUMA is not supported by the mixed workload"},
		{"unknown kind", false, 2, testbed, Workload{Kind: "quic"}, nil, `hostsim: unknown workload kind "quic"`},
		{"fabric rpc", true, 4, testbed, RPCIncastWorkload(2, 4096), nil,
			`hostsim: fabric topologies support the long workload only (got "rpc")`},
		{"fabric remote mixed", true, 4, testbed, remote(MixedWorkload(1, 4096)), nil,
			`hostsim: fabric topologies support the long workload only (got "mixed")`},
		{"fabric remote single", true, 4, testbed, remote(LongFlowWorkload(PatternSingle, 1)), nil,
			"hostsim: RemoteNUMA is a pair-topology option"},
		{"fabric unknown pattern", true, 4, testbed, LongFlowWorkload("ring", 0), nil, `hostsim: unknown pattern "ring"`},
		{"fabric one-to-one, odd hosts", true, 5, testbed, LongFlowWorkload(PatternOneToOne, 0), nil,
			"hostsim: one-to-one needs an even host count (got 5)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.wl.place(tc.fabric, tc.hosts, tc.spec)
			if gotErr := fmt.Sprint(err); (err != nil || tc.err != "") && gotErr != tc.err {
				t.Fatalf("error %s, want %q", gotErr, tc.err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("conns:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestPlaceMixedBound pins maxConns to the largest valid placement and
// checks that a mixed workload may open exactly that many connections.
func TestPlaceMixedBound(t *testing.T) {
	testbed := topology.Default()
	all, err := LongFlowWorkload(PatternAllToAll, 0).place(true, 256, testbed)
	if err != nil || len(all) != maxConns {
		t.Fatalf("all-to-all on 256 hosts: %d conns, %v; want %d", len(all), err, maxConns)
	}
	mixed, err := MixedWorkload(maxConns-1, 4096).place(false, 2, testbed)
	if err != nil || len(mixed) != maxConns {
		t.Fatalf("mixed at the bound: %d conns, %v; want %d", len(mixed), err, maxConns)
	}
}
