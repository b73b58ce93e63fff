package telemetry

import (
	"strings"
	"testing"
	"time"

	"hostsim/internal/sim"
)

func newSampled(t *testing.T, horizon time.Duration, maxSamples int) (*sim.Engine, *Sampler, *Counter) {
	t.Helper()
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	ctr := reg.Counter("events")
	// Simulated activity: bump the counter every 30µs.
	var work func()
	work = func() {
		ctr.Inc()
		eng.After(30*time.Microsecond, work)
	}
	eng.After(30*time.Microsecond, work)
	s := NewSampler(eng, reg, 100*time.Microsecond, maxSamples)
	s.Start(0)
	eng.Run(sim.Time(horizon))
	return eng, s, ctr
}

func TestSamplerSamplesOnInterval(t *testing.T) {
	_, s, _ := newSampled(t, time.Millisecond, 1024)
	// Samples at 0, 100µs, ..., 900µs (horizon exclusive).
	if s.Count() != 10 {
		t.Fatalf("Count = %d, want 10", s.Count())
	}
	tl := s.Timeline()
	if tl.Len() != 10 || tl.Times[0] != 0 || tl.Times[9] != 900*time.Microsecond {
		t.Errorf("Times = %v", tl.Times)
	}
	// The counter advances monotonically across samples.
	vals, ok := tl.Column("events")
	if !ok {
		t.Fatal("missing column")
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Errorf("counter went backwards at sample %d: %v", i, vals)
		}
	}
	if vals[9] == 0 {
		t.Error("counter never advanced")
	}
}

func TestSamplerRingEvictsOldest(t *testing.T) {
	_, s, _ := newSampled(t, time.Millisecond, 4)
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (ring capacity)", s.Count())
	}
	if s.Evicted() != 6 {
		t.Errorf("Evicted = %d, want 6", s.Evicted())
	}
	tl := s.Timeline()
	// Oldest-first: the retained window is the most recent 4 samples.
	want := []time.Duration{600 * time.Microsecond, 700 * time.Microsecond,
		800 * time.Microsecond, 900 * time.Microsecond}
	for i, w := range want {
		if tl.Times[i] != w {
			t.Fatalf("Times = %v, want %v", tl.Times, want)
		}
	}
}

func TestSamplerStartClampsToNow(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.Gauge("g", func() float64 { return 1 })
	eng.At(sim.Time(50*time.Microsecond), func() {})
	eng.Run(sim.Time(60 * time.Microsecond))
	s := NewSampler(eng, reg, 100*time.Microsecond, 16)
	s.Start(0) // in the past: first sample lands at now
	eng.Run(sim.Time(200 * time.Microsecond))
	if s.Count() == 0 {
		t.Fatal("no samples after clamped Start")
	}
	if got := s.Timeline().Times[0]; got != 60*time.Microsecond {
		t.Errorf("first sample at %v, want 60µs", got)
	}
}

func TestSamplerStartIsIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.Gauge("g", func() float64 { return 1 })
	s := NewSampler(eng, reg, 100*time.Microsecond, 16)
	s.Start(0)
	s.Start(0)
	eng.Run(sim.Time(250 * time.Microsecond))
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3 (double Start must not double-sample)", s.Count())
	}
}

func TestSamplerValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	for name, fn := range map[string]func(){
		"nil engine":   func() { NewSampler(nil, reg, time.Millisecond, 1) },
		"nil registry": func() { NewSampler(eng, nil, time.Millisecond, 1) },
		"interval":     func() { NewSampler(eng, reg, 0, 1) },
		"capacity":     func() { NewSampler(eng, reg, time.Millisecond, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// Timeline rows sampled before a late metric registration are padded to
// the final column count.
func TestTimelinePadsEarlyRows(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.Gauge("a", func() float64 { return 1 })
	s := NewSampler(eng, reg, 100*time.Microsecond, 16)
	s.Start(0)
	eng.Run(sim.Time(150 * time.Microsecond)) // samples at 0 and 100µs
	reg.Gauge("late", func() float64 { return 7 })
	eng.Run(sim.Time(250 * time.Microsecond)) // sample at 200µs sees both
	tl := s.Timeline()
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tl.Len())
	}
	for i, row := range tl.Rows {
		if len(row) != 2 {
			t.Fatalf("row %d has %d columns, want 2", i, len(row))
		}
	}
	if tl.Rows[0][1] != 0 || tl.Rows[2][1] != 7 {
		t.Errorf("padded rows wrong: %v", tl.Rows)
	}
}

// Identical runs must serialize to identical bytes: the timeline is the
// determinism contract of -telemetry-out.
func TestTimelineSerializationDeterministic(t *testing.T) {
	render := func() (string, string) {
		_, s, _ := newSampled(t, time.Millisecond, 1024)
		tl := s.Timeline()
		var csv, jsonl strings.Builder
		if err := tl.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := tl.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return csv.String(), jsonl.String()
	}
	csv1, jsonl1 := render()
	csv2, jsonl2 := render()
	if csv1 != csv2 {
		t.Error("CSV bytes differ across identical runs")
	}
	if jsonl1 != jsonl2 {
		t.Error("JSONL bytes differ across identical runs")
	}
	if !strings.HasPrefix(csv1, "time_ns,events\n") {
		t.Errorf("CSV header = %q", strings.SplitN(csv1, "\n", 2)[0])
	}
	if !strings.HasPrefix(jsonl1, `{"names":["events"]}`) {
		t.Errorf("JSONL header = %q", strings.SplitN(jsonl1, "\n", 2)[0])
	}
}

// TestTimelineSharesRowsExactly checks the shared-row Timeline: rows
// equal the sampled values oldest first across a ring wrap, short rows are
// padded without touching the sampler's copy, and Samples taken after
// Timeline returned (overwriting ring slots) leave it unchanged.
func TestTimelineSharesRowsExactly(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	v := 0.0
	reg.Gauge("a", func() float64 { return v })
	s := NewSampler(eng, reg, time.Microsecond, 3)
	for i := 1; i <= 4; i++ { // the ring wraps: samples 2, 3, 4 remain
		v = float64(i)
		s.Sample()
	}
	reg.Gauge("late", func() float64 { return 10 * v })
	v = 5
	s.Sample() // samples 3, 4, 5 remain; only 5 is full width

	tl := s.Timeline()
	want := [][]float64{{3, 0}, {4, 0}, {5, 50}}
	check := func(when string) {
		t.Helper()
		if len(tl.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", when, len(tl.Rows), len(want))
		}
		for i := range want {
			if len(tl.Rows[i]) != len(want[i]) || tl.Rows[i][0] != want[i][0] || tl.Rows[i][1] != want[i][1] {
				t.Errorf("%s: row %d = %v, want %v", when, i, tl.Rows[i], want[i])
			}
		}
	}
	check("fresh")
	short := 0
	for _, row := range s.rows {
		if len(row) == 1 {
			short++
		}
	}
	if short != 2 {
		t.Errorf("padding changed the sampler's own short rows: %v", s.rows)
	}
	for i := 6; i <= 9; i++ {
		v = float64(i)
		s.Sample()
	}
	check("after later samples")
}
