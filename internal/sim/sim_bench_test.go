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

// BenchmarkEngineHold measures dispatch under the pending mix of a
// multi-flow run: 130 far timers 2-6 ms out and 24 near chains 0.1-2 µs
// apart, like link heads and back-to-back work items, whose fires each
// schedule one successor. A quarter of near fires Reset one of the first
// 100 far timers, as an ACK re-arms its RTO, so those never fire; the
// other 30 fire and re-arm, like persist and keepalive timers. About 15 %
// of near fires schedule nothing; the next fire that does restarts that
// chain with a second schedule. One op is one dispatch; the run goes in
// 10 µs slices of Run, so the last slice may run a few hundred past b.N.
func BenchmarkEngineHold(b *testing.B) {
	const far, rearmed, chains = 130, 100, 24
	e := NewEngine(1)
	x := uint64(88172645463325252)
	rnd := func() uint64 { // xorshift64: cheaper than math/rand per fire
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	timers := make([]Timer, far)
	for i := range timers {
		var fire func()
		fire = func() {
			timers[i] = e.After(time.Duration(2_000_000+rnd()%4_000_000), fire)
		}
		timers[i] = e.After(time.Duration(2_000_000+rnd()%4_000_000), fire)
	}
	dead := 0
	var near func()
	near = func() {
		r := rnd()
		if r%100 < 15 {
			dead++
		} else {
			e.After(time.Duration(100+r%2000), near)
			if dead > 0 {
				dead--
				e.After(time.Duration(100+(r>>12)%2000), near)
			}
		}
		if (r>>32)%4 == 0 {
			timers[(r>>40)%rearmed].Reset(e.Now() + Time(2_000_000+(r>>20)%4_000_000))
		}
	}
	for i := 0; i < chains; i++ {
		e.After(time.Duration(100+rnd()%2000), near)
	}
	// runFor dispatches at least n more events, one slice at a time.
	runFor := func(n int) {
		end := e.Fired() + uint64(n)
		for e.Fired() < end {
			e.Run(e.Now() + 10_000)
		}
	}
	runFor(100_000) // warm the heap slice and the free list
	b.ReportAllocs()
	b.ResetTimer()
	runFor(b.N)
}
