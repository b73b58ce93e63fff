package telemetry

import (
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
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	r.Gauge("y", func() float64 { return 1 })
	if r.Len() != 0 || r.Names() != nil || len(r.ReadInto(make([]float64, 2))) != 0 {
		t.Error("nil registry must be empty")
	}
	if _, ok := r.Value("y"); ok {
		t.Error("nil registry must not resolve names")
	}
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("drops")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Value = %d, want 42", c.Value())
	}
	if v, ok := r.Value("drops"); !ok || v != 42 {
		t.Errorf("registry Value = %v, %v", v, ok)
	}
}

func TestReadKeepsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z", func() float64 { return 3 })
	r.Counter("a").Add(1)
	r.Gauge("m", func() float64 { return 2 })
	wantNames := []string{"z", "a", "m"}
	names := r.Names()
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v (registration order)", names, wantNames)
		}
	}
	row := r.ReadInto(make([]float64, 1, 8)) // reuses capacity, resized to the metric count
	if len(row) != 3 || row[0] != 3 || row[1] != 1 || row[2] != 2 {
		t.Errorf("ReadInto = %v", row)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	r.Gauge("x", func() float64 { return 0 })
}

func TestEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("empty name should panic")
		}
	}()
	r.Counter("")
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
