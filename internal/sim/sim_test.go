package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []time.Duration{50, 10, 30, 20, 40} {
		d := d
		e.After(d*time.Nanosecond, func() { got = append(got, e.Now()) })
	}
	e.Run(Time(1e9))
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run(1000)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestHorizonIsExclusive(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(100, func() { ran = true })
	end := e.Run(100)
	if ran {
		t.Error("event exactly at horizon must not run")
	}
	if end != 100 {
		t.Errorf("Run returned %v, want horizon 100", end)
	}
	if e.Pending() != 1 {
		t.Errorf("event should remain pending, got %d", e.Pending())
	}
}

func TestClockAdvancesToHorizonOnDrain(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	end := e.Run(500)
	if end != 500 || e.Now() != 500 {
		t.Errorf("drained run should advance clock to horizon, got %v", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling before now should panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(1000)
}

func TestNilEventPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling nil func should panic")
		}
	}()
	e.At(1, nil)
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := e.At(100, func() { ran = true })
	if !tm.Pending() {
		t.Error("timer should be pending after scheduling")
	}
	if !tm.Stop() {
		t.Error("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	if tm.Pending() {
		t.Error("stopped timer should not be pending")
	}
	e.Run(1000)
	if ran {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(5, func() {})
	e.Run(10)
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestTimerWhen(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(123, func() {})
	if tm.When() != 123 {
		t.Errorf("When = %v, want 123", tm.When())
	}
}

// TestHalt: a run halts at its exclusive horizon with the later events
// still queued, and a resumed run executes them.
func TestHalt(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	e.Run(2)
	if count != 1 || e.Pending() != 1 {
		t.Errorf("Run(2) should halt before the event at 2; ran %d with %d pending", count, e.Pending())
	}
	e.Run(100)
	if count != 2 {
		t.Errorf("resumed run should execute remaining event; ran %d", count)
	}
}

// TestStep drives the engine one event at a time through Run's
// exclusive horizon: each run stops before the next event, the next run
// resumes with it, and a run over an empty queue fires nothing.
func TestStep(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if e.Run(2); n != 1 {
		t.Fatalf("Run(2) should stop after the event at 1; ran %d", n)
	}
	if e.Run(3); n != 2 {
		t.Fatalf("Run(3) should resume with the event at 2; ran %d", n)
	}
	if got := e.Run(100); e.Fired() != 2 || got != 100 {
		t.Fatalf("Run over an empty queue fired %d in all and returned %v, want 2 and 100", e.Fired(), got)
	}
}

func TestCascadingEvents(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(time.Nanosecond, recurse)
		}
	}
	e.At(0, recurse)
	e.Run(Time(1e6))
	if depth != 100 {
		t.Errorf("cascade depth = %d, want 100", depth)
	}
	if e.Fired() != 100 {
		t.Errorf("Fired = %d, want 100", e.Fired())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		for i := 0; i < 200; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Nanosecond
			e.After(d, func() { trace = append(trace, int64(e.Now())+int64(e.Rand().Intn(7))) })
		}
		e.Run(Time(1e6))
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("same seed produced different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces; RNG not wired to seed")
	}
}

// Property: for any set of (time, id) pairs, events fire sorted by time
// with ties in insertion order.
func TestPropertyHeapOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine(1)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, tt := range times {
			i, at := i, Time(tt)
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run(Time(1 << 20))
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: stopping a random subset of timers fires exactly the others.
func TestPropertyTimerCancellation(t *testing.T) {
	f := func(times []uint16, cancelMask []bool) bool {
		e := NewEngine(1)
		firedSet := make(map[int]bool)
		timers := make([]Timer, len(times))
		for i, tt := range times {
			i := i
			timers[i] = e.At(Time(tt), func() { firedSet[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Stop()
				cancelled[i] = true
			}
		}
		e.Run(Time(1 << 20))
		for i := range times {
			if cancelled[i] == firedSet[i] {
				return false // fired XOR cancelled must hold
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTimerReset(t *testing.T) {
	e := NewEngine(1)
	var order []string
	a := e.At(100, func() { order = append(order, "a") })
	e.At(200, func() { order = append(order, "b") })
	if !a.Reset(300) {
		t.Fatal("Reset of a pending timer should report true")
	}
	if !a.Pending() {
		t.Error("reset timer should stay pending")
	}
	if a.When() != 300 {
		t.Errorf("When after Reset = %v, want 300", a.When())
	}
	e.Run(1000)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Errorf("fire order after reset = %v, want [b a]", order)
	}
}

// A reset timer moves to the back of the FIFO tie-break order at its new
// timestamp, exactly as if it had been freshly scheduled.
func TestTimerResetTieBreak(t *testing.T) {
	e := NewEngine(1)
	var order []string
	x := e.At(100, func() { order = append(order, "x") })
	e.At(100, func() { order = append(order, "y") })
	if !x.Reset(100) {
		t.Fatal("Reset to the same time should still succeed")
	}
	e.Run(1000)
	if len(order) != 2 || order[0] != "y" || order[1] != "x" {
		t.Errorf("fire order = %v, want [y x] (reset re-sequences the tie-break)", order)
	}
}

func TestTimerResetStoppedOrFired(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func() {})
	tm.Stop()
	if tm.Reset(50) {
		t.Error("Reset of a stopped timer should report false")
	}
	tm2 := e.At(20, func() {})
	e.Run(100)
	if tm2.Reset(500) {
		t.Error("Reset of a fired timer should report false")
	}
}

func TestTimerResetInPastPanics(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(100, func() {})
	e.At(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset before now should panic")
			}
		}()
		tm.Reset(10)
	})
	e.Run(1000)
}

// A handle whose event fired and was recycled for a new schedule must not
// be able to stop, reset, or observe the new event.
func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	stale := e.At(10, func() {})
	e.Run(20) // fires; event returns to the free list
	fresh := e.At(30, func() {})
	if stale.Pending() {
		t.Error("stale handle reports pending after its event was recycled")
	}
	if stale.Stop() {
		t.Error("stale handle stopped someone else's event")
	}
	if stale.Reset(40) {
		t.Error("stale handle reset someone else's event")
	}
	if !fresh.Pending() {
		t.Error("fresh timer lost its schedule to a stale handle")
	}
	ran := false
	fresh2 := e.At(35, func() { ran = true })
	_ = fresh2
	e.Run(100)
	if !ran {
		t.Error("recycled event did not fire")
	}
}

func TestStopClearsEventReference(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func() {})
	tm.Stop()
	if tm.e != nil {
		t.Error("Stop should nil the handle's event reference")
	}
	// A failed Stop on a stale handle also drops the reference.
	tm2 := e.At(20, func() {})
	e.Run(50)
	tm2.Stop()
	if tm2.e != nil {
		t.Error("failed Stop should still nil the stale event reference")
	}
}

// Steady-state scheduling and firing reuses pooled events: zero
// allocations per schedule/fire cycle once the free list is primed.
func TestScheduleFireAllocationFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Prime the heap slice and free list.
	for i := 0; i < 64; i++ {
		e.After(time.Nanosecond, fn)
	}
	e.Run(e.Now() + 100)
	allocs := testing.AllocsPerRun(100, func() {
		e.After(time.Nanosecond, fn)
		e.Run(e.Now() + 100)
	})
	if allocs != 0 {
		t.Errorf("schedule+fire allocates %v per op, want 0", allocs)
	}
}

// Timer.Reset must not allocate.
func TestResetAllocationFree(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(1000, func() {})
	at := Time(1000)
	allocs := testing.AllocsPerRun(100, func() {
		at++
		tm.Reset(at)
	})
	if allocs != 0 {
		t.Errorf("Reset allocates %v per op, want 0", allocs)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(10, func() {
		e.After(-5*time.Nanosecond, func() { ran = true })
	})
	e.Run(100)
	if !ran {
		t.Error("negative After should clamp to now and fire")
	}
}

// Run never moves the clock backward, and a horizon at or before Now()
// dispatches nothing — not even an event scheduled exactly at Now().
func TestRunNeverRewindsClock(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(100, rec)
	e.At(50, rec)
	if end := e.Run(60); end != 60 || len(fired) != 1 {
		t.Fatalf("Run(60) = %v with %d fired, want 60 with 1", end, len(fired))
	}
	e.At(60, rec)
	for _, h := range []Time{30, 60} {
		if end := e.Run(h); end != 60 || e.Now() != 60 {
			t.Fatalf("Run(%v) moved the clock to %v (returned %v), want it left at 60", h, e.Now(), end)
		}
		if len(fired) != 1 || e.Pending() != 2 {
			t.Fatalf("Run(%v) dispatched: fired %v, %d pending", h, fired, e.Pending())
		}
	}
	e.Run(1000)
	if want := []Time{50, 60, 100}; len(fired) != 3 || fired[1] != want[1] || fired[2] != want[2] {
		t.Errorf("fired at %v, want %v", fired, want)
	}
}

// A deferred schedule under a reserved sequence number dispatches where a
// schedule made at reservation time would have: ahead of same-time events
// scheduled after the reservation, behind those scheduled before it.
func TestReservedSeqKeepsOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(100, func() { order = append(order, "before") })
	seq := e.ReserveSeq()
	e.At(100, func() { order = append(order, "after") })
	e.AtArgSeq(100, seq, func(a any) { order = append(order, a.(string)) }, "reserved")
	e.Run(1000)
	if len(order) != 3 || order[0] != "before" || order[1] != "reserved" || order[2] != "after" {
		t.Errorf("fire order = %v, want [before reserved after]", order)
	}
}

func TestAtArgSeqUnreservedPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling under a sequence number never reserved should panic")
		}
	}()
	e.AtArgSeq(10, 5, func(any) {}, nil)
}
