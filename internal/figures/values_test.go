package figures

import (
	"math"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		ID:      "sample",
		Columns: []string{"rx-buffer", "ring", "thpt-gbps", "miss-rate", "latency"},
		Rows: [][]string{
			{"3200KB", "128", "60.45", "4.2%", "4µs"},
			{"3200KB", "256", "57.60", "8.1%", "52µs"},
			{"default", "128", "42.04", "59.5%", "1.413ms"},
		},
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"41.36", 41.36, true},
		{"1.5e-04", 1.5e-4, true},
		{"128", 128, true},
		{"62.8%", 0.628, true},
		{"+0%", 0, true},
		{"-16%", -0.16, true},
		{"532µs", 532e-6, true},
		{"5.739ms", 5.739e-3, true},
		{"true", 0, false},
		{"No Opt.", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseValue(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := sampleTable()
	if got := tbl.ColumnIndex("thpt-gbps"); got != 2 {
		t.Errorf("ColumnIndex = %d, want 2", got)
	}
	if got := tbl.ColumnIndex("nope"); got != -1 {
		t.Errorf("ColumnIndex(nope) = %d, want -1", got)
	}

	// Single-key lookup finds the first matching row.
	v, err := tbl.Value("thpt-gbps", "default")
	if err != nil || v != 42.04 {
		t.Errorf("Value(default) = %v, %v", v, err)
	}
	// Multi-key lookup disambiguates grid rows.
	v, err = tbl.Value("miss-rate", "3200KB", "256")
	if err != nil || math.Abs(v-0.081) > 1e-12 {
		t.Errorf("Value(3200KB,256) = %v, %v", v, err)
	}
	// Durations come back in seconds.
	v, err = tbl.Value("latency", "default")
	if err != nil || math.Abs(v-1.413e-3) > 1e-12 {
		t.Errorf("Value(latency) = %v, %v", v, err)
	}
	if _, err := tbl.Value("thpt-gbps", "9600KB"); err == nil {
		t.Error("missing row accepted")
	}
	if _, err := tbl.Value("nope", "default"); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := tbl.Cell("ring"); err == nil {
		t.Error("empty key accepted")
	}

	col, err := tbl.Column("thpt-gbps")
	if err != nil || len(col) != 3 || col[0] != 60.45 || col[2] != 42.04 {
		t.Errorf("Column = %v, %v", col, err)
	}
	if _, err := tbl.Column("rx-buffer"); err == nil {
		t.Error("non-numeric column parsed")
	}
}

func TestIDsMatchRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs() returned %d ids for %d experiments", len(ids), len(All()))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
		if _, ok := ByID(id); !ok {
			t.Errorf("IDs lists %q but ByID misses it", id)
		}
	}
}
