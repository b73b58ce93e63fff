package skb

import (
	"testing"

	"hostsim/internal/cpumodel"
	"hostsim/internal/units"
)

// BenchmarkGROSingleFlow measures the merge fast path (one flow, in
// order), the hot loop of every receive-side simulation, with frames and
// SKBs recycled through their pools as the NIC runs it. Steady state
// should be allocation-free apart from occasional pages-slice growth.
func BenchmarkGROSingleFlow(b *testing.B) {
	benchGRO(b, 1)
}

// BenchmarkGROInterleaved measures the all-to-all regime: many flows
// thrashing the 8-entry table.
func BenchmarkGROInterleaved(b *testing.B) {
	benchGRO(b, 24)
}

// benchGRO feeds GRO in-order jumbo frames of flows round-robin, flushing
// every 64 frames like a NAPI poll.
func benchGRO(b *testing.B, flows int) {
	skbs, frames := &Pool{}, &FramePool{}
	g := NewGRO(cpumodel.Default(), skbs, frames)
	ch := cpumodel.Discard{}
	seqs := make([]int64, flows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fl := FlowID(i % flows)
		f := frames.Get()
		f.Flow, f.Seq, f.Len = fl, seqs[fl], 8934
		seqs[fl] += 8934
		for _, s := range g.Receive(ch, f, nil) {
			skbs.Put(s)
		}
		if i%64 == 63 {
			for _, s := range g.Flush(nil) {
				skbs.Put(s)
			}
		}
	}
}

// BenchmarkSegmentSizes measures the GSO/TSO split helper.
func BenchmarkSegmentSizes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SegmentSizes(64*units.KB, 8934)
	}
}
