package telemetry

import (
	"fmt"
	"testing"
	"time"

	"hostsim/internal/sim"
)

func BenchmarkRegistryRead(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		v := float64(i)
		r.Gauge(string(rune('a'+i%26))+string(rune('0'+i/26)), func() float64 { return v })
	}
	var row []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row = r.ReadInto(row)
	}
}

// BenchmarkRegistryReadBlock reads the same 64 columns as
// BenchmarkRegistryRead registered as 16 four-column blocks, the shape of
// the per-core gauges.
func BenchmarkRegistryReadBlock(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		base := float64(4 * i)
		r.Block(fmt.Sprintf("core%02d/", i), []string{"a", "b", "c", "d"}, func(dst []float64) {
			dst[0], dst[1], dst[2], dst[3] = base, base+1, base+2, base+3
		})
	}
	var row []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row = r.ReadInto(row)
	}
}

// BenchmarkSamplerWide samples 2,000 gauges of which one in 50 changes
// between samples (a 16-host run's registry is ~2,000 gauges with ~2 %
// changing) into a 300-sample ring, so steady state evicts and releases
// chunks.
func BenchmarkSamplerWide(b *testing.B) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	vals := make([]float64, 2000)
	for i := range vals {
		reg.Gauge(fmt.Sprintf("g%04d", i), func() float64 { return vals[i] })
	}
	s := NewSampler(eng, reg, time.Microsecond)
	s.max = 300
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for i := n % 50; i < len(vals); i += 50 {
			vals[i]++
		}
		s.Sample()
	}
}
