package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineThroughput measures raw event dispatch rate — the
// simulator's fundamental cost unit.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine(1)
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			e.After(time.Nanosecond, step)
		}
	}
	b.ResetTimer()
	e.At(0, step)
	e.Run(Time(1) << 60)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineFanOut measures heap behaviour with many pending events.
func BenchmarkEngineFanOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(1)
		b.StartTimer()
		for j := 0; j < 4096; j++ {
			d := time.Duration(e.Rand().Intn(100000)) * time.Nanosecond
			e.After(d, func() {})
		}
		e.Run(Time(1) << 40)
	}
}

// BenchmarkTimerStop measures cancel cost (RTO timers churn constantly).
func BenchmarkTimerStop(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.At(Time(i+1)<<20, func() {})
		t.Stop()
	}
}

// BenchmarkTimerReset measures the in-place heap re-key — the RTO
// re-arm fast path. Zero allocations expected.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine(1)
	// A little background population so the re-key does real sift work.
	for i := 0; i < 63; i++ {
		e.At(Time(i+1)<<30, func() {})
	}
	t := e.At(1<<29, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(Time(1<<29 + i%1024))
	}
}

// BenchmarkScheduleFirePooled measures the steady-state schedule+dispatch
// cycle with the event free list warm. Zero allocations expected.
func BenchmarkScheduleFirePooled(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Nanosecond, fn)
	}
	e.Run(e.Now() + 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Nanosecond, fn)
		e.Run(e.Now() + 100)
	}
}
