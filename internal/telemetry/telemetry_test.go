package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// timelineOf builds a timeline from dense rows sampled at times.
func timelineOf(names []string, times []time.Duration, rows [][]float64) *Timeline {
	tl := &Timeline{Names: names}
	var prev []float64
	for i, row := range rows {
		prev = tl.add(times[i], append([]float64(nil), row...), prev)
	}
	return tl
}

// durs builds n sample instants at 1µs, 2µs, ...
func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Microsecond
	}
	return out
}

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	r.Gauge("y", func() float64 { return 1 })
	r.Block("z/", []string{"a", "b"}, func(dst []float64) { dst[0], dst[1] = 1, 2 })
	if r.Len() != 0 || r.Names() != nil || len(r.ReadInto(make([]float64, 2))) != 0 {
		t.Error("nil registry must be empty")
	}
}

// TestGauge reads a gauge over a count, the way hosts publish theirs:
// each read sees the value the count holds at that moment.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	var drops int64
	r.Gauge("drops", func() float64 { return float64(drops) })
	if row := r.ReadInto(nil); len(row) != 1 || row[0] != 0 {
		t.Errorf("registry reads %v before the drops, want [0]", row)
	}
	for i := 0; i < 42; i++ {
		drops++
	}
	if names, row := r.Names(), r.ReadInto(nil); len(names) != 1 || names[0] != "drops" || len(row) != 1 || row[0] != 42 {
		t.Errorf("registry reads %v = %v, want [drops] = [42]", names, row)
	}
}

func TestReadKeepsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z", func() float64 { return 3 })
	r.Block("blk/", []string{"y", "x"}, func(dst []float64) { dst[0], dst[1] = 4, 5 })
	r.Gauge("a", func() float64 { return 1 })
	r.Gauge("m", func() float64 { return 2 })
	r.Block("", []string{"b"}, func(dst []float64) { dst[0] = 6 })
	wantNames := []string{"z", "blk/y", "blk/x", "a", "m", "b"}
	if names := r.Names(); !slices.Equal(names, wantNames) {
		t.Fatalf("Names = %v, want %v (registration order)", names, wantNames)
	}
	if r.Len() != len(wantNames) {
		t.Errorf("Len = %d, want %d", r.Len(), len(wantNames))
	}
	row := r.ReadInto(make([]float64, 1, 8)) // reuses capacity, resized to the metric count
	if want := []float64{3, 4, 5, 1, 2, 6}; !slices.Equal(row, want) {
		t.Errorf("ReadInto = %v, want %v", row, want)
	}
}

// TestBlockReadsOncePerSample pins the contract the stateful rate probes
// rely on: each block's read runs exactly once per ReadInto, in
// registration order.
func TestBlockReadsOncePerSample(t *testing.T) {
	r := NewRegistry()
	var calls []string
	r.Block("a/", []string{"x", "y"}, func(dst []float64) { calls = append(calls, "a"); dst[0], dst[1] = 1, 2 })
	r.Gauge("b", func() float64 { calls = append(calls, "b"); return 3 })
	r.Block("c/", []string{"z"}, func(dst []float64) { calls = append(calls, "c"); dst[0] = 4 })
	r.ReadInto(nil)
	r.ReadInto(nil)
	if want := []string{"a", "b", "c", "a", "b", "c"}; !slices.Equal(calls, want) {
		t.Errorf("reads = %v, want %v", calls, want)
	}
}

// mustPanic runs register on a fresh registry that already holds the
// columns "a/b/c" (one block) and "x" and "y" (another) and fails unless it
// panics.
func mustPanic(t *testing.T, what string, register func(r *Registry)) {
	t.Helper()
	r := NewRegistry()
	r.Block("a/", []string{"b/c"}, func(dst []float64) {})
	r.Block("", []string{"x", "y"}, func(dst []float64) {})
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	register(r)
}

func TestDuplicateNamePanics(t *testing.T) {
	nop := func(dst []float64) {}
	mustPanic(t, "gauge over a block column", func(r *Registry) { r.Gauge("x", func() float64 { return 0 }) })
	mustPanic(t, "a one-column block over a block column", func(r *Registry) { r.Block("y", oneColumn, nop) })
	mustPanic(t, "a duplicate inside one block", func(r *Registry) { r.Block("n/", []string{"p", "q", "p"}, nop) })
	mustPanic(t, "a duplicate across blocks", func(r *Registry) { r.Block("", []string{"z", "y"}, nop) })
	mustPanic(t, "a duplicate split across the prefix boundary", func(r *Registry) { r.Block("a/b/", []string{"c"}, nop) })
	mustPanic(t, "a duplicate split the other way", func(r *Registry) { r.Block("", []string{"a/b/c"}, nop) })

	// Names that share a prefix or a suffix, or hash-equal bytes split
	// differently but spell something else, are distinct.
	r := NewRegistry()
	r.Block("a/", []string{"b/c", "b/d"}, nop)
	r.Block("a/b/", []string{"e"}, nop)
	r.Block("ab/", []string{"c"}, nop)
	r.Gauge("a/b", func() float64 { return 0 })
	if r.Len() != 5 {
		t.Errorf("Len = %d, want 5", r.Len())
	}
}

func TestJoinedEqual(t *testing.T) {
	for _, c := range []struct {
		a1, a2, b1, b2 string
		want           bool
	}{
		{"a/", "b/c", "a/b/", "c", true},
		{"a/b/", "c", "a/", "b/c", true},
		{"", "abc", "abc", "", true},
		{"ab", "c", "ab", "c", true},
		{"a/", "b/c", "a/b/", "d", false},
		{"a/", "b/c", "a/", "b/cd", false},
		{"x/", "b/c", "a/b/", "c", false},
		{"a/", "x/c", "a/b/", "c", false},
	} {
		if got := joinedEqual(c.a1, c.a2, c.b1, c.b2); got != c.want {
			t.Errorf("joinedEqual(%q+%q, %q+%q) = %v, want %v", c.a1, c.a2, c.b1, c.b2, got, c.want)
		}
	}
}

// TestManyColumnsStayDistinct registers enough columns to grow the name
// table several times and checks that every name still resolves as taken.
func TestManyColumnsStayDistinct(t *testing.T) {
	r := NewRegistry()
	suffixes := []string{"softirq_us", "thread_us", "runq", "runq_wait_us"}
	for i := 0; i < 500; i++ {
		r.Block(fmt.Sprintf("host%03d/", i), suffixes, func(dst []float64) {})
	}
	if r.Len() != 2000 || len(r.Names()) != 2000 {
		t.Fatalf("Len = %d, Names = %d, want 2000", r.Len(), len(r.Names()))
	}
	for _, i := range []int{0, 137, 499} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("host%03d/runq registered twice", i)
				}
			}()
			r.Gauge(fmt.Sprintf("host%03d/runq", i), func() float64 { return 0 })
		}()
	}
}

func TestEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("empty name should panic")
		}
	}()
	r.Gauge("", func() float64 { return 0 })
}

func TestNilProbePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("nil probe should panic")
		}
	}()
	r.Gauge("x", nil)
}

func TestBadBlockPanics(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"nil read":      func(r *Registry) { r.Block("x/", []string{"a"}, nil) },
		"empty block":   func(r *Registry) { r.Block("x/", nil, func([]float64) {}) },
		"empty in list": func(r *Registry) { r.Block("", []string{"a", ""}, func([]float64) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}

// TestRegistryAllocations pins the price of registration and reading:
// a block costs its table entries, not an allocation per column.
func TestRegistryAllocations(t *testing.T) {
	names := make([]string, 96)
	for i := range names {
		names[i] = fmt.Sprintf("core%02d/runq", i)
	}
	read := func(dst []float64) {
		for i := range dst {
			dst[i] = float64(i)
		}
	}
	const runs = 50
	regs := make([]*Registry, runs+1)
	for i := range regs {
		regs[i] = NewRegistry()
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { regs[next].Block("host/", names, read); next++ }); n > 2 {
		t.Errorf("registering a 96-column block allocated %v objects, want <= 2", n)
	}
	for _, cols := range []int{1, 96, 4096} {
		r := NewRegistry()
		for i := 0; i < cols; i += len(names) {
			r.Block(fmt.Sprintf("h%03d/", i), names[:min(len(names), cols-i)], read)
		}
		if n := testing.AllocsPerRun(20, func() { r.Names() }); n > 2 {
			t.Errorf("Names over %d columns allocated %v objects, want <= 2", cols, n)
		}
		row := r.ReadInto(nil)
		if n := testing.AllocsPerRun(20, func() { row = r.ReadInto(row) }); n != 0 {
			t.Errorf("ReadInto over %d columns into a warm row allocated %v objects", cols, n)
		}
	}
}

func TestTimelineColumn(t *testing.T) {
	tl := timelineOf([]string{"a", "b"}, durs(3), [][]float64{{1, 10}, {2, 20}, {3, 30}})
	vals, ok := tl.Column("b")
	if !ok || len(vals) != 3 || vals[2] != 30 {
		t.Errorf("Column(b) = %v, %v", vals, ok)
	}
	if _, ok := tl.Column("nope"); ok {
		t.Error("unknown column should report !ok")
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := timelineOf([]string{"a", "b"}, durs(2), [][]float64{{1, 0.5}, {2, 0.25}})
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,a,b\n1000,1,0.5\n2000,2,0.25\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}
