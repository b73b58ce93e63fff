package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The differential tests in this file drive the engine and a reference
// oracle through the same randomized workloads and require identical
// dispatch traces. The oracle is the simplest scheduler that obviously
// dispatches in (at, seq) order: a binary min-heap of event pointers. It
// schedules a reserved sequence number at reservation time, so it is also
// the ground truth for Engine.ReserveSeq/AtArgSeq deferred schedules, and
// for Engine.Passed: a reservation has passed once the oracle dispatched
// its event.

// oracleEvent is one oracle schedule; idx < 0 means not pending.
type oracleEvent struct {
	at    Time
	seq   uint64
	fn    func()
	idx   int
	fired bool
}

// heapSched is the oracle's queue: a binary min-heap ordered by (at, seq).
type heapSched struct {
	q []*oracleEvent
}

func (h *heapSched) len() int { return len(h.q) }

func (h *heapSched) less(i, j int) bool {
	a, b := h.q[i], h.q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *heapSched) swap(i, j int) {
	h.q[i], h.q[j] = h.q[j], h.q[i]
	h.q[i].idx = i
	h.q[j].idx = j
}

func (h *heapSched) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heapSched) down(i int) {
	n := len(h.q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

func (h *heapSched) schedule(ev *oracleEvent) {
	ev.idx = len(h.q)
	h.q = append(h.q, ev)
	h.up(len(h.q) - 1)
}

func (h *heapSched) unschedule(ev *oracleEvent) {
	i := ev.idx
	last := len(h.q) - 1
	if i != last {
		h.swap(i, last)
	}
	h.q[last] = nil
	h.q = h.q[:last]
	if i != last {
		h.down(i)
		h.up(i)
	}
	ev.idx = -1
}

func (h *heapSched) popBefore(limit Time) *oracleEvent {
	if len(h.q) == 0 || h.q[0].at >= limit {
		return nil
	}
	ev := h.q[0]
	last := len(h.q) - 1
	if last > 0 {
		h.swap(0, last)
	}
	h.q[last] = nil
	h.q = h.q[:last]
	h.down(0)
	ev.idx = -1
	return ev
}

// subject is what the differential scripts drive: the engine, or the
// oracle. Timers are addressed by the order they were scheduled in.
type subject interface {
	Now() Time
	Run(horizon Time) Time
	Pending() int
	schedule(t Time, fn func())
	stop(i int) bool
	reset(i int, at Time) bool
	timers() int
	// reserve takes a sequence number for an event at t; commit schedules
	// it. Between the two, other schedules may take later numbers.
	reserve(t Time, fn func()) int
	commit(r int)
	// passed reports whether reservation r's event has dispatched, or
	// would have if it had been committed.
	passed(r int) bool
}

// reservation is a reserved-but-uncommitted schedule.
type reservation struct {
	at  Time
	seq uint64
	fn  func()
}

type engineSubject struct {
	*Engine
	tms      []Timer
	reserved []reservation
	held     int // reservations not yet committed
}

// Pending counts held reservations too: the oracle schedules them at
// reservation time.
func (s *engineSubject) Pending() int { return s.Engine.Pending() + s.held }

func (s *engineSubject) schedule(t Time, fn func()) { s.tms = append(s.tms, s.At(t, fn)) }
func (s *engineSubject) stop(i int) bool            { return s.tms[i].Stop() }
func (s *engineSubject) reset(i int, at Time) bool  { return s.tms[i].Reset(at) }
func (s *engineSubject) timers() int                { return len(s.tms) }

func (s *engineSubject) reserve(t Time, fn func()) int {
	s.reserved = append(s.reserved, reservation{t, s.ReserveSeq(), fn})
	s.held++
	return len(s.reserved) - 1
}

func (s *engineSubject) commit(r int) {
	s.held--
	rv := s.reserved[r]
	s.AtArgSeq(rv.at, rv.seq, func(any) { rv.fn() }, nil)
}

func (s *engineSubject) passed(r int) bool {
	rv := s.reserved[r]
	return s.Passed(rv.at, rv.seq)
}

type oracle struct {
	now  Time
	seq  uint64
	h    heapSched
	evs  []*oracleEvent
	resv []*oracleEvent
}

func (o *oracle) Now() Time    { return o.now }
func (o *oracle) Pending() int { return o.h.len() }
func (o *oracle) timers() int  { return len(o.evs) }

func (o *oracle) add(t Time, fn func()) *oracleEvent {
	if t < o.now {
		panic("oracle: scheduling in the past")
	}
	ev := &oracleEvent{at: t, seq: o.seq, fn: fn}
	o.seq++
	o.h.schedule(ev)
	return ev
}

func (o *oracle) schedule(t Time, fn func()) { o.evs = append(o.evs, o.add(t, fn)) }

func (o *oracle) stop(i int) bool {
	ev := o.evs[i]
	if ev.idx < 0 {
		return false
	}
	o.h.unschedule(ev)
	return true
}

func (o *oracle) reset(i int, at Time) bool {
	ev := o.evs[i]
	if ev.idx < 0 {
		return false
	}
	if at < o.now {
		panic("oracle: resetting into the past")
	}
	o.h.unschedule(ev)
	ev.at, ev.seq = at, o.seq
	o.seq++
	o.h.schedule(ev)
	return true
}

// reserve schedules at once: the oracle's answer for where a deferred
// schedule under a reserved sequence number must dispatch.
func (o *oracle) reserve(t Time, fn func()) int {
	o.resv = append(o.resv, o.add(t, fn))
	return len(o.resv) - 1
}

func (o *oracle) commit(int) {}

func (o *oracle) passed(r int) bool { return o.resv[r].fired }

func (o *oracle) Run(horizon Time) Time {
	for {
		ev := o.h.popBefore(horizon)
		if ev == nil {
			break
		}
		o.now = ev.at
		ev.fired = true
		ev.fn()
	}
	if o.now < horizon {
		o.now = horizon
	}
	return o.now
}

func newSubjects(seed int64) (eng, ref subject) {
	return &engineSubject{Engine: NewEngine(seed)}, &oracle{}
}

// compareTraces fails t at the first dispatch where the engine and the
// oracle disagree.
func compareTraces(t *testing.T, label string, et, ot []traceRec, ep, op int) {
	t.Helper()
	if len(et) != len(ot) || ep != op {
		t.Fatalf("%s: engine fired %d (pending %d), oracle fired %d (pending %d)",
			label, len(et), ep, len(ot), op)
	}
	for i := range et {
		if et[i] != ot[i] {
			t.Fatalf("%s: dispatch %d diverged: engine %+v, oracle %+v", label, i, et[i], ot[i])
		}
	}
}

// TestTimerEdgeCases is the table of Timer.Stop/Reset corner semantics,
// run against the engine's heap.
func TestTimerEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"stop after fire reports false", func(t *testing.T, e *Engine) {
			tm := e.At(5, func() {})
			e.Run(10)
			if tm.Stop() {
				t.Error("Stop after firing should report false")
			}
			if tm.Pending() {
				t.Error("fired timer should not be pending")
			}
		}},
		{"stop twice reports false second time", func(t *testing.T, e *Engine) {
			tm := e.At(5, func() {})
			if !tm.Stop() || tm.Stop() {
				t.Error("Stop must report true then false")
			}
		}},
		{"reset to past panics", func(t *testing.T, e *Engine) {
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
		}},
		{"reset to same tick moves to back of FIFO", func(t *testing.T, e *Engine) {
			var order []string
			x := e.At(100, func() { order = append(order, "x") })
			e.At(100, func() { order = append(order, "y") })
			if !x.Reset(100) {
				t.Fatal("Reset to the same time should succeed")
			}
			e.Run(1000)
			if len(order) != 2 || order[0] != "y" || order[1] != "x" {
				t.Errorf("fire order = %v, want [y x]", order)
			}
		}},
		{"reset to current tick from inside a callback", func(t *testing.T, e *Engine) {
			var order []string
			var tm Timer
			e.At(100, func() {
				order = append(order, "a")
				// tm is pending at 200; pull it into the tick being
				// dispatched right now. It must fire after every event
				// already queued at this tick.
				tm.Reset(100)
			})
			tm = e.At(200, func() { order = append(order, "b") })
			e.At(100, func() { order = append(order, "c") })
			e.Run(1000)
			if len(order) != 3 || order[0] != "a" || order[1] != "c" || order[2] != "b" {
				t.Errorf("fire order = %v, want [a c b]", order)
			}
		}},
		{"stop same-tick sibling from inside a callback", func(t *testing.T, e *Engine) {
			var order []string
			var victim Timer
			e.At(100, func() {
				order = append(order, "a")
				if !victim.Stop() {
					t.Error("stopping a pending same-tick sibling should succeed")
				}
			})
			victim = e.At(100, func() { order = append(order, "victim") })
			e.At(100, func() { order = append(order, "b") })
			e.Run(1000)
			if len(order) != 2 || order[0] != "a" || order[1] != "b" {
				t.Errorf("fire order = %v, want [a b]", order)
			}
		}},
		{"reset far future then near", func(t *testing.T, e *Engine) {
			fired := Time(-1)
			tm := e.At(10, func() { fired = e.Now() })
			// Far future (days of simulated time), then back near.
			if !tm.Reset(Time(1) << 50) {
				t.Fatal("Reset to far future should succeed")
			}
			if !tm.Reset(77) {
				t.Fatal("Reset back near should succeed")
			}
			e.Run(1000)
			if fired != 77 {
				t.Errorf("timer fired at %v, want 77", fired)
			}
		}},
		{"stale handle after recycle", func(t *testing.T, e *Engine) {
			stale := e.At(10, func() {})
			e.Run(20)
			fresh := e.At(30, func() {})
			if stale.Pending() || stale.Stop() || stale.Reset(40) {
				t.Error("stale handle must not touch the recycled event")
			}
			if !fresh.Pending() {
				t.Error("fresh timer lost its schedule to a stale handle")
			}
		}},
		{"zero timer is inert", func(t *testing.T, e *Engine) {
			var tm Timer
			if tm.Pending() || tm.Stop() || tm.Reset(10) {
				t.Error("zero Timer must be permanently inert")
			}
		}},
	}
	t.Run("heap", func(t *testing.T) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				tc.run(t, NewEngine(1))
			})
		}
	})
}

// TestInPlaceDispatch is the table of in-place dispatch corners: the
// firing event's root slot is a hole while its callback runs, the first
// schedule takes it, and a callback that schedules nothing (or panics
// before it does) leaves it for the engine to pop.
func TestInPlaceDispatch(t *testing.T) {
	// order records dispatches by name, for comparing fire order.
	type order []string
	rec := func(o *order, name string) func() { return func() { *o = append(*o, name) } }
	same := func(t *testing.T, got order, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("fire order = %v, want %v", got, want)
		}
	}
	// panicRun runs fn and swallows the panic it must raise.
	panicRun := func(t *testing.T, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected a panic")
			}
		}()
		fn()
	}
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"Pending inside a callback excludes the dispatching event", func(t *testing.T, e *Engine) {
			var got []int
			e.At(10, func() {
				got = append(got, e.Pending())
				e.At(30, func() {})
				got = append(got, e.Pending())
				e.At(40, func() {})
				got = append(got, e.Pending())
			})
			e.At(20, func() { got = append(got, e.Pending()) })
			e.Run(25)
			got = append(got, e.Pending())
			if fmt.Sprint(got) != "[1 2 3 2 2]" {
				t.Errorf("Pending answers = %v, want [1 2 3 2 2]", got)
			}
		}},
		{"first schedule is AtArgSeq at Now under a seq reserved before the dispatch", func(t *testing.T, e *Engine) {
			var o order
			var s uint64
			e.At(100, func() {
				o = append(o, "a")
				// The reservation sits between a and b at this instant,
				// so it takes a's slot and stays at the root.
				tm := e.AtArgSeq(100, s, func(any) { o = append(o, "reserved") }, nil)
				if tm.When() != 100 || e.Pending() != 2 {
					t.Errorf("reserved: When %v with %d pending, want 100 with 2", tm.When(), e.Pending())
				}
			})
			s = e.ReserveSeq()
			e.At(100, rec(&o, "b"))
			e.Run(1000)
			same(t, o, "a", "reserved", "b")
		}},
		{"When and Stop of the event that filled the slot", func(t *testing.T, e *Engine) {
			var o order
			var filled Timer
			e.At(10, func() {
				filled = e.At(60, rec(&o, "filled"))
				e.At(30, rec(&o, "second"))
				if filled.When() != 60 || !filled.Pending() {
					t.Errorf("filled: When %v, Pending %v; want 60, true", filled.When(), filled.Pending())
				}
			})
			e.At(50, func() {
				o = append(o, "stopper")
				if filled.When() != 60 || !filled.Stop() {
					t.Error("the filled event should still be pending at 60")
				}
			})
			e.Run(1000)
			same(t, o, "second", "stopper")
			if e.Pending() != 0 {
				t.Errorf("Pending = %d after the run, want 0", e.Pending())
			}
		}},
		// "Halt" and "Step" rows stop Run at a horizon: just past the
		// halting event, or one event per run.
		{"Halt without a fill", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, rec(&o, "halter"))
			e.At(20, rec(&o, "next"))
			if got := e.Run(11); got != 11 || e.Pending() != 1 {
				t.Fatalf("halted Run = %v with %d pending, want 11 with 1", got, e.Pending())
			}
			e.Run(1000)
			same(t, o, "halter", "next")
		}},
		{"Halt with a fill", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, func() {
				o = append(o, "halter")
				e.At(15, rec(&o, "successor"))
			})
			e.At(20, rec(&o, "next"))
			if got := e.Run(11); got != 11 || e.Pending() != 2 {
				t.Fatalf("halted Run = %v with %d pending, want 11 with 2", got, e.Pending())
			}
			e.Run(1000)
			same(t, o, "halter", "successor", "next")
		}},
		{"Step with and without a fill", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, func() { o = append(o, "filler"); e.At(15, rec(&o, "filled")) })
			e.At(12, rec(&o, "empty"))
			e.At(20, rec(&o, "last"))
			var pending []int
			for _, h := range []Time{11, 13, 16, 21} {
				if got := e.Run(h); got != h {
					t.Fatalf("Run(%v) = %v", h, got)
				}
				pending = append(pending, e.Pending())
			}
			same(t, o, "filler", "empty", "filled", "last")
			if fmt.Sprint(pending) != "[3 2 1 0]" {
				t.Errorf("Pending after each Run = %v, want [3 2 1 0]", pending)
			}
		}},
		{"a panic before the fill, then Run", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, func() { o = append(o, "panicker"); e.At(5, func() {}) })
			e.At(20, rec(&o, "b"))
			e.At(30, rec(&o, "c"))
			panicRun(t, func() { e.Run(1000) })
			if e.Now() != 10 || e.Pending() != 2 {
				t.Fatalf("after the panic: Now %v with %d pending, want 10 with 2", e.Now(), e.Pending())
			}
			e.Run(25)
			if e.Pending() != 1 {
				t.Errorf("Pending = %d after Run(25), want 1", e.Pending())
			}
			e.Run(1000)
			same(t, o, "panicker", "b", "c")
		}},
		{"a panic before the fill, then Step", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, func() { o = append(o, "panicker"); e.At(5, func() {}) })
			e.At(20, rec(&o, "b"))
			e.At(30, rec(&o, "c"))
			panicRun(t, func() { e.Run(1000) })
			var pending []int
			for _, h := range []Time{21, 31} {
				e.Run(h)
				pending = append(pending, e.Pending())
			}
			same(t, o, "panicker", "b", "c")
			if fmt.Sprint(pending) != "[1 0]" {
				t.Errorf("Pending after each Run = %v, want [1 0]", pending)
			}
		}},
		{"a panic before the fill, then a schedule from outside", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, func() { o = append(o, "panicker"); e.At(5, func() {}) })
			e.At(20, rec(&o, "b"))
			panicRun(t, func() { e.Run(1000) })
			// The open hole takes this schedule, at the panicking instant.
			tm := e.At(10, rec(&o, "outside"))
			if tm.When() != 10 || e.Pending() != 2 {
				t.Fatalf("outside: When %v with %d pending, want 10 with 2", tm.When(), e.Pending())
			}
			e.Run(1000)
			same(t, o, "panicker", "outside", "b")
		}},
		{"a panic after the fill", func(t *testing.T, e *Engine) {
			var o order
			e.At(10, func() {
				o = append(o, "panicker")
				e.At(25, rec(&o, "filled"))
				e.At(5, func() {})
			})
			e.At(20, rec(&o, "b"))
			e.At(30, rec(&o, "c"))
			panicRun(t, func() { e.Run(1000) })
			if e.Pending() != 3 {
				t.Fatalf("Pending = %d after the panic, want 3", e.Pending())
			}
			e.Run(1000)
			same(t, o, "panicker", "b", "filled", "c")
		}},
		{"a fill is allocation-free", func(t *testing.T, e *Engine) {
			var step func()
			step = func() { e.After(time.Nanosecond, step) }
			e.At(0, step)
			e.Run(100)
			allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 100) })
			if allocs != 0 {
				t.Errorf("fire+fill allocates %v per run, want 0", allocs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewEngine(1))
		})
	}
}

// TestPassedEdgeCases pins Engine.Passed where its answer turns: the
// same-instant keys on both sides of the dispatching one, a run that
// advances the clock to its horizon, and the state a callback that
// panicked out of Run leaves.
func TestPassedEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"fresh engine has passed nothing", func(t *testing.T, e *Engine) {
			s := e.ReserveSeq()
			if e.Passed(0, s) {
				t.Error("Passed(0, first seq) before any dispatch")
			}
		}},
		{"same instant, both sides of the dispatching seq", func(t *testing.T, e *Engine) {
			before, self, after := e.ReserveSeq(), e.ReserveSeq(), e.ReserveSeq()
			var ranAt Time
			e.AtArgSeq(100, self, func(any) {
				for _, c := range []struct {
					at   Time
					seq  uint64
					want bool
				}{
					{100, before, true},
					{100, self, true},
					{100, after, false},
					{99, after, true},
					{101, before, false},
				} {
					if got := e.Passed(c.at, c.seq); got != c.want {
						t.Errorf("Passed(%v, %d) = %v during seq %d, want %v", c.at, c.seq, got, self, c.want)
					}
				}
				// The later key is still schedulable and lands this instant.
				e.AtArgSeq(100, after, func(any) { ranAt = e.Now() }, nil)
			}, nil)
			e.Run(1000)
			if ranAt != 100 {
				t.Errorf("the later same-instant key dispatched at %v, want 100", ranAt)
			}
		}},
		{"run to the horizon clears the instant", func(t *testing.T, e *Engine) {
			e.At(50, func() {})
			late := e.ReserveSeq()
			if got := e.Run(100); got != 100 {
				t.Fatalf("Run(100) = %v", got)
			}
			if e.Passed(100, 0) || e.Passed(100, late) {
				t.Error("Passed(H, s) after Run(H): nothing at H has dispatched")
			}
			if !e.Passed(99, late) {
				t.Error("Passed(H-1, s) after Run(H) must be true")
			}
		}},
		{"event at the horizon has not passed", func(t *testing.T, e *Engine) {
			s := e.ReserveSeq()
			e.AtArgSeq(100, s, func(any) {}, nil)
			e.Run(100)
			if e.Passed(100, s) {
				t.Error("an event at the exclusive horizon reported passed")
			}
		}},
		// A callback panicking out of Run is what halts a run mid-instant.
		{"halt keeps the halting instant", func(t *testing.T, e *Engine) {
			panicker, next, held := e.ReserveSeq(), e.ReserveSeq(), e.ReserveSeq()
			var o []string
			e.AtArgSeq(100, panicker, func(any) { panic("stop") }, nil)
			e.AtArgSeq(100, next, func(any) { o = append(o, "next") }, nil)
			e.At(200, func() {})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected a panic")
					}
				}()
				e.Run(1000)
			}()
			if e.Now() != 100 {
				t.Fatalf("panicked at %v, want 100", e.Now())
			}
			// A horizon at Now() moves nothing, so it clears nothing.
			e.Run(100)
			if !e.Passed(100, panicker) || e.Passed(100, next) || e.Passed(100, held) {
				t.Error("after the panic only the panicking seq has passed")
			}
			e.AtArgSeq(100, held, func(any) { o = append(o, "held") }, nil)
			e.Run(1000)
			if fmt.Sprint(o) != "[next held]" {
				t.Errorf("after the panic fired %v, want [next held]", o)
			}
		}},
		{"step dispatches one key", func(t *testing.T, e *Engine) {
			a, b := e.ReserveSeq(), e.ReserveSeq()
			fired := false
			e.AtArgSeq(10, a, func(any) { panic("stop") }, nil)
			e.AtArgSeq(10, b, func(any) { fired = true }, nil)
			func() {
				defer func() { recover() }()
				e.Run(100)
			}()
			if !e.Passed(10, a) || e.Passed(10, b) {
				t.Error("after one dispatch only the first same-instant key has passed")
			}
			e.Run(100)
			if !fired || !e.Passed(10, b) {
				t.Error("the resumed run should dispatch the second key")
			}
		}},
		{"scheduling a passed key panics", func(t *testing.T, e *Engine) {
			a, b := e.ReserveSeq(), e.ReserveSeq()
			e.AtArgSeq(10, b, func(any) {
				defer func() {
					if recover() == nil {
						t.Error("AtArgSeq under a passed key should panic")
					}
				}()
				e.AtArgSeq(10, a, func(any) {}, nil)
			}, nil)
			e.Run(100)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewEngine(1))
		})
	}
}

// traceRec is one dispatched event: when it fired and which logical event
// it was. Equal traces mean equal dispatch order.
type traceRec struct {
	at Time
	id int
}

// farFuture is a delay well past every other timescale in the scripts,
// about 73 simulated minutes.
const farFuture = Time(1) << 42

// dispatchTrace drives one subject through a randomized workload derived
// deterministically from seed — mixed timescales (same-tick collisions
// through far futures), Stop/Reset churn from inside callbacks, deferred
// schedules under reserved sequence numbers, and multiple Run segments —
// and records the (time, id) dispatch sequence. The RNG is consumed
// inside callbacks too, so the streams only stay aligned between two
// subjects if their dispatch orders are identical; any divergence
// cascades into an obvious trace mismatch.
func dispatchTrace(s subject, seed int64) ([]traceRec, int) {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceRec
	nextID := 0
	delay := func() Time {
		switch rng.Intn(8) {
		case 0:
			return 0 // same tick
		case 1:
			return Time(rng.Intn(64))
		case 2:
			return Time(rng.Intn(10_000))
		case 3:
			return Time(rng.Intn(1_000_000))
		case 4:
			return Time(rng.Intn(1_000_000_000)) // RTO-ish
		case 5:
			return farFuture + Time(rng.Intn(1_000_000))
		default:
			return Time(rng.Intn(4096))
		}
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		s.schedule(s.Now()+delay(), func() {
			trace = append(trace, traceRec{s.Now(), id})
			if depth >= 3 {
				return
			}
			switch rng.Intn(5) {
			case 0, 1: // schedule more from inside the dispatch
				schedule(depth + 1)
			case 2: // stop a random timer (possibly a same-tick sibling)
				s.stop(rng.Intn(s.timers()))
			case 3: // reset a random timer (possibly to this very tick)
				s.reset(rng.Intn(s.timers()), s.Now()+Time(rng.Intn(1000)))
			case 4: // no churn
			}
		})
	}
	horizon := Time(0)
	for seg := 0; seg < 6; seg++ {
		var held []int
		for i := 0; i < 50; i++ {
			if rng.Intn(4) == 0 {
				// Reserve now, commit after later schedules have taken
				// higher sequence numbers, some at the same time.
				id := nextID
				nextID++
				held = append(held, s.reserve(s.Now()+delay(), func() {
					trace = append(trace, traceRec{s.Now(), id})
				}))
				continue
			}
			schedule(0)
		}
		for i := len(held) - 1; i >= 0; i-- {
			s.commit(held[i])
		}
		horizon += Time(rng.Intn(2_000_000) + 1)
		s.Run(horizon)
	}
	s.Run(horizon + 2*farFuture)
	return trace, s.Pending()
}

// TestSchedulerEquivalence cross-checks the engine against the oracle on
// randomized workloads: identical dispatch sequences (times, identities,
// same-tick FIFO order) and identical leftover counts.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eng, ref := newSubjects(seed)
		et, ep := dispatchTrace(eng, seed)
		ot, op := dispatchTrace(ref, seed)
		compareTraces(t, fmt.Sprintf("seed %d", seed), et, ot, ep, op)
	}
}

// Passed and Pending answers go into the trace as these ids, so the
// oracle checks them: a Pending answer n is recorded as pendingZero - n.
const (
	passedYes   = -1
	passedNo    = -2
	pendingZero = -3
)

// runScript interprets data as a deterministic op stream against one
// subject: schedule (with a delta whose shift reaches far futures), stop,
// reset, run-to-horizon, a reserved sequence number taken now and
// committed by a later op or before the run that reaches it, a Passed
// query on a reservation, and a Pending query. Every dispatch asks Passed
// of one reservation, so same-instant keys on both sides of the
// dispatching one are queried, and then runs the next 0-3 ops in place,
// inside the callback, every op but a run: so schedules, stops, resets,
// reservations, commits and queries also happen while the engine's root
// slot is a hole. Returns the trace and the leftover pending count.
func runScript(s subject, data []byte) ([]traceRec, int) {
	var trace []traceRec
	var resv []Time // each reservation's time, by reservation index
	var held []int  // reservations not yet committed, oldest first
	var runH Time   // horizon of the run in progress, or of the last one
	id := 0
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	ask := func(r int) {
		ans := passedNo
		if s.passed(r) {
			ans = passedYes
		}
		trace = append(trace, traceRec{s.Now(), ans})
	}
	// commitBefore commits the held reservations a run to horizon would
	// reach; the rest stay held across the run.
	commitBefore := func(horizon Time) {
		kept := held[:0]
		for _, r := range held {
			if resv[r] < horizon {
				s.commit(r)
			} else {
				kept = append(kept, r)
			}
		}
		held = kept
	}
	var op func(inCallback bool)
	record := func() func() {
		myID := id
		id++
		return func() {
			trace = append(trace, traceRec{s.Now(), myID})
			if len(resv) > 0 {
				ask(myID % len(resv))
			}
			for n := next() % 4; n > 0; n-- {
				op(true)
			}
			// A reservation taken in place that the run in progress
			// reaches must be in before the run gets there.
			commitBefore(runH)
		}
	}
	op = func(inCallback bool) {
		switch next() % 8 {
		case 0: // schedule at now + (b << s), s up to 44
			b, sh := Time(next()), uint(next())%45
			s.schedule(s.Now()+(b<<sh), record())
		case 1: // stop
			if s.timers() > 0 {
				s.stop(int(next()) % s.timers())
			}
		case 2: // reset to now + delta (never the past)
			if s.timers() > 0 {
				i := int(next()) % s.timers()
				s.reset(i, s.Now()+Time(next()))
			}
		case 3: // run forward; reservations it reaches must be in before
			h := s.Now() + Time(next())*17 + 1
			if inCallback {
				return // no nested runs
			}
			commitBefore(h)
			runH = h
			s.Run(h)
		case 4: // reserve a sequence number for an event at now + delta
			at := s.Now() + Time(next())
			resv = append(resv, at)
			held = append(held, s.reserve(at, record()))
		case 5: // commit the oldest held reservation, possibly after runs
			if len(held) > 0 && !s.passed(held[0]) {
				s.commit(held[0])
				held = held[1:]
			}
		case 6: // ask whether a reservation, held or committed, has passed
			if len(resv) > 0 {
				ask(int(next()) % len(resv))
			}
		case 7: // ask how many events are pending
			trace = append(trace, traceRec{s.Now(), pendingZero - s.Pending()})
		}
	}
	for pos < len(data) {
		op(false)
	}
	runH = s.Now() + Time(1)<<21
	commitBefore(runH)
	s.Run(runH)
	return trace, s.Pending()
}

// FuzzScheduler feeds the same op script to the engine and the oracle and
// requires identical traces: dispatches, and Passed answers equal to
// whether the oracle has dispatched the reservation's event.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 20, 0, 3, 200})
	f.Add([]byte{0, 255, 40, 0, 1, 0, 3, 9, 0, 3, 3, 1, 0, 2, 0, 77, 3, 255})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 3, 1})
	f.Add([]byte{4, 9, 0, 9, 0, 0, 9, 0, 5, 4, 9, 3, 2, 4, 0, 5, 3, 1})
	f.Add([]byte{4, 40, 4, 0, 0, 40, 0, 4, 40, 6, 0, 3, 1, 6, 2, 5, 3, 3, 6, 0, 6, 1, 6, 2})
	f.Add([]byte{4, 18, 0, 5, 0, 3, 1, 6, 0, 5, 3, 1})
	// Callbacks that schedule nothing: each ran op is a Pending query.
	f.Add([]byte{0, 10, 0, 0, 20, 0, 3, 2, 1, 7, 0, 7})
	// A callback that schedules one event, which fires in the same run.
	f.Add([]byte{0, 10, 0, 0, 200, 0, 3, 1, 2, 0, 3, 0, 7, 0, 7, 3, 255, 0, 7})
	// A callback that schedules three: one later in the run, one at the
	// dispatching instant, one at the exclusive horizon.
	f.Add([]byte{0, 10, 0, 0, 90, 0, 3, 1, 3, 0, 2, 0, 0, 0, 0, 0, 8, 0, 0, 1, 7, 7, 3, 9, 0, 0, 7})
	// A callback that stops the only other pending timer, leaving the
	// hole alone in the heap, then schedules.
	f.Add([]byte{0, 10, 0, 0, 50, 0, 3, 1, 2, 1, 1, 0, 5, 0, 0, 7})
	// A callback whose first schedule commits a reservation taken before
	// the run, under an older sequence number.
	f.Add([]byte{4, 200, 0, 10, 0, 3, 1, 1, 5, 3, 20, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		eng, ref := newSubjects(1)
		et, ep := runScript(eng, data)
		ot, op := runScript(ref, data)
		compareTraces(t, "script", et, ot, ep, op)
	})
}

// TestSchedulerEquivalenceLongHaul marches a sparse self-rescheduling
// timer across a long horizon with strides of growing length.
func TestSchedulerEquivalenceLongHaul(t *testing.T) {
	e := NewEngine(9)
	var fired []Time
	var tick func()
	tick = func() {
		fired = append(fired, e.Now())
		if len(fired) < 500 {
			e.After(time.Duration(63+len(fired)*641), tick)
		}
	}
	e.At(0, tick)
	e.Run(Time(1) << 40)
	if len(fired) != 500 {
		t.Fatalf("fired %d, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if want := fired[i-1] + Time(63+i*641); fired[i] != want {
			t.Fatalf("tick %d fired at %v, want %v", i, fired[i], want)
		}
	}
}
