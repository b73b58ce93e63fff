package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hostsim/internal/sim"
)

// newSampled samples a count of simulated events every 100µs into a ring
// of maxSamples samples until horizon.
func newSampled(t *testing.T, horizon time.Duration, maxSamples int) (*sim.Engine, *Sampler) {
	t.Helper()
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	var events int64
	reg.Gauge("events", func() float64 { return float64(events) })
	// Simulated activity: count an event every 30µs.
	var work func()
	work = func() {
		events++
		eng.After(30*time.Microsecond, work)
	}
	eng.After(30*time.Microsecond, work)
	s := NewSampler(eng, reg, 100*time.Microsecond)
	s.max = maxSamples
	s.Start(0)
	eng.Run(sim.Time(horizon))
	return eng, s
}

func TestSamplerSamplesOnInterval(t *testing.T) {
	_, s := newSampled(t, time.Millisecond, 1024)
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
	_, s := newSampled(t, time.Millisecond, 4)
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
	s := NewSampler(eng, reg, 100*time.Microsecond)
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
	s := NewSampler(eng, reg, 100*time.Microsecond)
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
		"nil engine":   func() { NewSampler(nil, reg, time.Millisecond) },
		"nil registry": func() { NewSampler(eng, nil, time.Millisecond) },
		"interval":     func() { NewSampler(eng, reg, -time.Millisecond) },
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
	if s := NewSampler(eng, reg, 0); s.interval != DefaultInterval || s.max != DefaultMaxSamples {
		t.Errorf("NewSampler(eng, reg, 0) samples every %v into %d, want %v into %d",
			s.interval, s.max, DefaultInterval, DefaultMaxSamples)
	}
}

// Timeline rows sampled before a late metric registration are padded to
// the final column count.
func TestTimelinePadsEarlyRows(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.Gauge("a", func() float64 { return 1 })
	s := NewSampler(eng, reg, 100*time.Microsecond)
	s.Start(0)
	eng.Run(sim.Time(150 * time.Microsecond)) // samples at 0 and 100µs
	reg.Gauge("late", func() float64 { return 7 })
	eng.Run(sim.Time(250 * time.Microsecond)) // sample at 200µs sees both
	tl := s.Timeline()
	if tl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tl.Len())
	}
	for i := 0; i < tl.Len(); i++ {
		if row := tl.Row(i); len(row) != 2 {
			t.Fatalf("row %d has %d columns, want 2", i, len(row))
		}
	}
	if tl.Row(0)[1] != 0 || tl.Row(2)[1] != 7 {
		t.Errorf("padded rows wrong: %v %v %v", tl.Row(0), tl.Row(1), tl.Row(2))
	}
}

// Identical runs must serialize to identical bytes: the timeline is the
// determinism contract of -telemetry-out.
func TestTimelineSerializationDeterministic(t *testing.T) {
	render := func() (string, string) {
		_, s := newSampled(t, time.Millisecond, 1024)
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

// TestTimelineSharesRowsExactly checks the Timeline snapshot: rows equal
// the sampled values oldest first across a ring wrap, short rows read as
// padded without touching the sampler's state, and Samples taken after
// Timeline returned (evicting its rows from the ring) leave it unchanged.
func TestTimelineSharesRowsExactly(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	v := 0.0
	reg.Gauge("a", func() float64 { return v })
	s := NewSampler(eng, reg, time.Microsecond)
	s.max = 3
	for i := 1; i <= 4; i++ { // the ring wraps: samples 2, 3, 4 remain
		v = float64(i)
		s.Sample()
	}
	reg.Gauge("late", func() float64 { return 10 * v })
	v = 5
	s.Sample() // samples 3, 4, 5 remain; only 5 is full width

	tl := s.Timeline()
	want := [][]float64{{3, 0}, {4, 0}, {5, 50}}
	check := func(when string, tl *Timeline) {
		t.Helper()
		if tl.Len() != len(want) {
			t.Fatalf("%s: %d rows, want %d", when, tl.Len(), len(want))
		}
		for i := range want {
			if row := tl.Row(i); len(row) != len(want[i]) || row[0] != want[i][0] || row[1] != want[i][1] {
				t.Errorf("%s: row %d = %v, want %v", when, i, row, want[i])
			}
		}
	}
	check("fresh", tl)
	check("a second Timeline", s.Timeline())
	for i := 6; i <= 9; i++ {
		v = float64(i)
		s.Sample()
	}
	check("after later samples", tl)
}

// TestSamplerMatchesDenseReference drives a sampler with random gauges and
// keeps an in-test dense copy of every retained row. Values include NaN,
// ±0 and ±Inf; gauges register after sampling has started (some reading
// -0 or NaN at once); the ring is small enough to evict and to release
// chunks of its change log. Row, Each, Column, WriteCSV, WriteJSONL and a ReadTimeline
// round trip must all equal the reference, bit for bit, including a
// Timeline taken midway and checked after the ring has moved on.
func TestSamplerMatchesDenseReference(t *testing.T) {
	for _, special := range []bool{false, true} {
		t.Run(fmt.Sprintf("special=%v", special), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pool := []float64{0, 1, 2.5, -3, 1e300, math.Copysign(0, -1)}
			if special {
				pool = append(pool, math.NaN(), math.Inf(1), math.Inf(-1))
			}
			eng := sim.NewEngine(1)
			reg := NewRegistry()
			var vals []float64
			addGauge := func(v float64) {
				i := len(vals)
				vals = append(vals, v)
				reg.Gauge(fmt.Sprintf("g%02d", i), func() float64 { return vals[i] })
			}
			for i := 0; i < 5; i++ {
				addGauge(pool[rng.Intn(len(pool))])
			}
			const max = 7
			s := NewSampler(eng, reg, time.Microsecond)
			s.max = max
			var rows [][]float64 // every sample, as wide as the registry was
			var times []time.Duration
			var mid *Timeline
			var midRows [][]float64
			var midTimes []time.Duration
			for n := 0; n < 60; n++ {
				switch n {
				case 3, 20, 21:
					addGauge(math.Copysign(0, -1))
					addGauge(pool[rng.Intn(len(pool))])
				case 40:
					addGauge(0)
				}
				for i := range vals {
					if rng.Intn(4) == 0 {
						vals[i] = pool[rng.Intn(len(pool))]
					}
				}
				eng.Run(eng.Now() + sim.Time(time.Microsecond))
				s.Sample()
				rows = append(rows, append([]float64(nil), vals...))
				times = append(times, eng.Now().Duration())
				if n == 25 {
					mid = s.Timeline()
					midRows, midTimes = retained(rows, len(vals), max), append([]time.Duration(nil), times[len(times)-max:]...)
				}
			}
			held := 0
			for _, c := range s.log.Chunks() {
				held += len(c)
			}
			if s.Evicted() != 60-max || s.Count() != max || held == s.log.Len() {
				t.Fatalf("Evicted %d, Count %d, %d of %d changes held: want eviction and released chunks",
					s.Evicted(), s.Count(), held, s.log.Len())
			}
			checkDense(t, "final", s.Timeline(), reg.Names(), times[len(times)-max:], retained(rows, len(vals), max), special)
			checkDense(t, "midway", mid, reg.Names()[:len(midRows[0])], midTimes, midRows, special)
		})
	}
}

// retained returns the last max rows, each padded with zeros to width.
func retained(rows [][]float64, width, max int) [][]float64 {
	var out [][]float64
	for _, r := range rows[len(rows)-max:] {
		out = append(out, append(append([]float64(nil), r...), make([]float64, width-len(r))...))
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDense compares every read path of tl against dense rows.
func checkDense(t *testing.T, when string, tl *Timeline, names []string, times []time.Duration, want [][]float64, special bool) {
	t.Helper()
	if !reflect.DeepEqual(tl.Names, names) || !reflect.DeepEqual(tl.Times, times) || tl.Len() != len(want) {
		t.Fatalf("%s: names %v times %v len %d; want %v %v %d", when, tl.Names, tl.Times, tl.Len(), names, times, len(want))
	}
	for i := range want {
		if got := tl.Row(i); !sameBits(got, want[i]) {
			t.Errorf("%s: Row(%d) = %v, want %v", when, i, got, want[i])
		}
	}
	n := 0
	if err := tl.Each(func(i int, row []float64) error {
		if i != n || !sameBits(row, want[i]) {
			t.Errorf("%s: Each row %d (call %d) = %v, want %v", when, i, n, row, want[i])
		}
		n++
		return nil
	}); err != nil || n != len(want) {
		t.Errorf("%s: Each made %d calls, err %v", when, n, err)
	}
	for c, name := range names {
		col, ok := tl.Column(name)
		wantCol := make([]float64, len(want))
		for i := range want {
			wantCol[i] = want[i][c]
		}
		if !ok || !sameBits(col, wantCol) {
			t.Errorf("%s: Column(%s) = %v, want %v", when, name, col, wantCol)
		}
	}

	var csv, wantCSV strings.Builder
	wantCSV.WriteString("time_ns," + strings.Join(names, ",") + "\n")
	for i, row := range want {
		wantCSV.WriteString(strconv.FormatInt(int64(times[i]), 10))
		for _, v := range row {
			wantCSV.WriteString("," + strconv.FormatFloat(v, 'g', -1, 64))
		}
		wantCSV.WriteString("\n")
	}
	if err := tl.WriteCSV(&csv); err != nil || csv.String() != wantCSV.String() {
		t.Errorf("%s: WriteCSV err %v:\n%s\nwant:\n%s", when, err, csv.String(), wantCSV.String())
	}
	var jsonl, wantJSONL bytes.Buffer
	err := tl.WriteJSONL(&jsonl)
	enc := json.NewEncoder(&wantJSONL)
	wantErr := enc.Encode(map[string][]string{"names": names})
	for i := 0; i < len(want) && wantErr == nil; i++ {
		wantErr = enc.Encode(&struct {
			TNs int64     `json:"t_ns"`
			V   []float64 `json:"v"`
		}{int64(times[i]), want[i]})
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && jsonl.String() != wantJSONL.String()) {
		t.Errorf("%s: WriteJSONL err %v (want %v):\n%s\nwant:\n%s", when, err, wantErr, jsonl.String(), wantJSONL.String())
	}
	if special != (wantErr != nil) {
		t.Errorf("%s: JSON encoding error %v with special values %v", when, wantErr, special)
	}

	files := map[string]string{"csv": csv.String()}
	if err == nil {
		files["jsonl"] = jsonl.String()
	}
	for kind, data := range files {
		back, err := ReadTimeline([]byte(data))
		if err != nil {
			t.Fatalf("%s: ReadTimeline(%s): %v", when, kind, err)
		}
		if !reflect.DeepEqual(back.Names, names) || !reflect.DeepEqual(back.Times, times) || back.Len() != len(want) {
			t.Fatalf("%s: ReadTimeline(%s) names %v times %v", when, kind, back.Names, back.Times)
		}
		for i := range want {
			if got := back.Row(i); !sameBits(got, want[i]) {
				t.Errorf("%s: ReadTimeline(%s) row %d = %v, want %v", when, kind, i, got, want[i])
			}
		}
	}
}
