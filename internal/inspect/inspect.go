// Package inspect is the simulator's wire-level observability layer —
// the tooling the paper itself diagnoses the host stack with, rebuilt on
// top of the simulation:
//
//   - a per-link packet-capture tap that serializes simulated frames
//     (Ethernet/IPv4/TCP headers synthesized from segment metadata) into
//     real pcapng files, readable by Wireshark/tshark and round-trippable
//     through the in-repo ReadPcap;
//   - a tcp_probe-style congestion trace: per-connection records of cwnd,
//     ssthresh, srtt and bytes-in-flight on every ACK, plus retransmit /
//     fast-retransmit / RTO / recovery events, exportable as JSONL or CSV;
//   - `ss -i`-style socket and queue snapshots, built on the telemetry
//     registry/sampler machinery (see core.(*Host).RegisterInspect).
//
// Everything here follows the repo's nil-is-free observer convention, and
// every hook is a pure read of simulation state: an inspected run follows
// the exact trajectory of an uninspected one, bit for bit, so the
// conservation-law invariant checker can stay armed while capturing.
package inspect

// Defaults for the inspector's bounds and cadences.
const (
	// DefaultSnapLen is the captured-bytes bound per packet: enough for
	// the 66 synthesized header bytes plus a slice of (zero) payload.
	DefaultSnapLen = 128
	// DefaultMaxPackets bounds one direction's capture; packets beyond it
	// are counted as truncated, not recorded.
	DefaultMaxPackets = 1 << 20
	// DefaultMaxProbeEvents bounds the tcp_probe trace.
	DefaultMaxProbeEvents = 1 << 20
)
