package profile

import (
	"fmt"
	"testing"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
)

// BenchmarkRecord feeds the profiler one work item's charge log per op,
// cycling over 16 hosts and softirq or thread context, with flows labeled
// as a 16-host incast labels them.
func BenchmarkRecord(b *testing.B) {
	classes := make(map[int32]string)
	for f := int32(1); f <= 32; f++ {
		classes[f] = "long"
	}
	p := New(Options{FlowClasses: classes}, 3_400_000_000)
	hosts := make([]string, 16)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%02d", i)
	}
	log := []exec.FlowCharge{
		{Flow: 3, Cat: cpumodel.Netdev, Cycles: 900},
		{Flow: 3, Cat: cpumodel.TCPIP, Cycles: 1200},
		{Flow: 0, Cat: cpumodel.Etc, Cycles: 150},
		{Flow: 40, Cat: cpumodel.SKBMgmt, Cycles: 300},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Record(hosts[i%16], i%3 != 0, "iperf-recv", log)
	}
}
