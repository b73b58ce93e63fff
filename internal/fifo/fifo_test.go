package fifo

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSliceOracle drives a random Push/Pop script against a
// plain slice. Occupancy rises by about 2,000 and falls back in alternate
// 10k-step phases, so the script grows the ring from 2 through a dozen
// doublings and wraps the head at several sizes.
func TestRingMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	var oracle []int
	next, grows, wraps := 0, 0, 0
	for step := 0; step < 200_000; step++ {
		pushBias := 6
		if (step/10_000)%2 == 1 {
			pushBias = 4
		}
		if len(oracle) == 0 || rng.Intn(10) < pushBias {
			before := len(r.buf)
			r.Push(next)
			oracle = append(oracle, next)
			next++
			if len(r.buf) != before {
				grows++
			}
		} else {
			head := r.head
			got, want := r.Pop(), oracle[0]
			oracle = oracle[1:]
			if got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
			if r.head < head {
				wraps++
			}
		}
		if r.Len() != len(oracle) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(oracle))
		}
		if len(r.buf)&(len(r.buf)-1) != 0 {
			t.Fatalf("step %d: buffer length %d is not a power of two", step, len(r.buf))
		}
		if len(oracle) > 0 && step%97 == 0 {
			for i, v := range oracle {
				if *r.At(i) != v {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, *r.At(i), v)
				}
			}
		}
	}
	if grows < 7 || wraps < 20 {
		t.Fatalf("script too tame: %d grows, %d wraps", grows, wraps)
	}
}

// TestRingEndsAfterWraparound checks Front, Back and At once the live run
// straddles the end of the buffer.
func TestRingEndsAfterWraparound(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	for i := 0; i < 6; i++ {
		r.Pop()
	}
	for i := 8; i < 13; i++ {
		r.Push(i) // 6, 7 at the end of the 8-slot buffer, 8..12 wrap to the front
	}
	if len(r.buf) != 8 || r.head != 6 {
		t.Fatalf("buffer %d slots, head %d; want 8 slots, head 6", len(r.buf), r.head)
	}
	if *r.Front() != 6 || *r.Back() != 12 {
		t.Fatalf("Front, Back = %d, %d; want 6, 12", *r.Front(), *r.Back())
	}
	for i := 0; i < r.Len(); i++ {
		if got := *r.At(i); got != 6+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 6+i)
		}
	}
	*r.Back() = 99
	*r.Front() = 98
	if got := r.Pop(); got != 98 {
		t.Fatalf("Pop after writing Front = %d, want 98", got)
	}
	if got := *r.At(r.Len() - 1); got != 99 {
		t.Fatalf("At(Len-1) after writing Back = %d, want 99", got)
	}
}

// TestRingPopZeroesSlot checks that a popped pointer is not retained by
// the ring's buffer, so the collector can free what it points to.
func TestRingPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 5; i++ {
		v := i
		r.Push(&v)
	}
	for i := 0; i < 3; i++ {
		r.Pop()
	}
	for i, p := range r.buf {
		live := (i-r.head)&(len(r.buf)-1) < r.n
		if live != (p != nil) {
			t.Fatalf("slot %d: pointer %v, live %v", i, p, live)
		}
	}
}

func TestRingPanicsWhenEmpty(t *testing.T) {
	var r Ring[int]
	for name, f := range map[string]func(){
		"Pop":   func() { r.Pop() },
		"Front": func() { r.Front() },
		"Back":  func() { r.Back() },
		"At":    func() { r.At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRingSteadyStateAllocationFree pins the reason the ring exists: at a
// fixed occupancy, a push/pop cycle reuses slots and never allocates.
func TestRingSteadyStateAllocationFree(t *testing.T) {
	var r Ring[*int]
	x := new(int)
	for i := 0; i < 37; i++ {
		r.Push(x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 100; i++ {
			r.Push(r.Pop())
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop cycle allocates %.1f times, want 0", allocs)
	}
}

var sink int

// BenchmarkRingPushPop is one push and one pop at an occupancy of 64.
func BenchmarkRingPushPop(b *testing.B) {
	var r Ring[int]
	for i := 0; i < 64; i++ {
		r.Push(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(i)
		sink += r.Pop()
	}
}
