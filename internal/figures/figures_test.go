package figures

import (
	"strings"
	"testing"
	"time"

	"hostsim"
)

// quick returns a fast measurement window for tests.
func quick() RunConfig {
	return RunConfig{Seed: 3, Warmup: 6 * time.Millisecond, Duration: 8 * time.Millisecond}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
		"fig4",
		"fig5a", "fig5b", "fig5c",
		"fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig7c",
		"fig8a", "fig8b", "fig8c",
		"fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "fig10c",
		"fig11a", "fig11b",
		"fig12a", "fig12b", "fig12c",
		"fig13a", "fig13b", "fig13c",
		"table2",
		"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7",
		"abl1", "abl2", "abl3", "abl4", "abl5",
		"app1", "app2", "app3", "app4", "app5",
		"fab1", "fab2", "fab3", "fab4", "fab5", "fab6",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s (paper order)", i, got[i].ID, id)
		}
	}
	for _, e := range got {
		if e.Title == "" || e.Paper == "" || e.Render == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig3a"); !ok {
		t.Error("fig3a not found")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("fig99 should not exist")
	}
}

// Every experiment must run end to end and produce a consistent table.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	ClearCache()
	rc := quick()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(rc)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tbl.Columns))
				}
			}
			s := tbl.String()
			if !strings.Contains(s, e.ID) || !strings.Contains(s, tbl.Columns[0]) {
				t.Error("rendered table missing header")
			}
		})
	}
}

func TestRunCache(t *testing.T) {
	ClearCache()
	rc := quick()
	fig3a, _ := ByID("fig3a")
	fig3b, _ := ByID("fig3b")
	if _, err := fig3a.Run(rc); err != nil {
		t.Fatal(err)
	}
	n := CacheSize()
	if n == 0 {
		t.Fatal("cache empty after a run")
	}
	// Re-running the same figure must not add entries.
	if _, err := fig3a.Run(rc); err != nil {
		t.Fatal(err)
	}
	if CacheSize() != n {
		t.Errorf("cache grew on identical rerun: %d -> %d", n, CacheSize())
	}
	// fig3b shares fig3a's ladder runs.
	if _, err := fig3b.Run(rc); err != nil {
		t.Fatal(err)
	}
	if CacheSize() != n {
		t.Errorf("fig3b should fully reuse fig3a's runs (%d -> %d)", n, CacheSize())
	}

	// One RunAll plans every experiment's runs as one batch: runs shared
	// between figures (Fig. 10's with app3, the loss sweep of 9a-9d with
	// the single-flow baseline of 3a) execute once each.
	ClearCache()
	var exps []Experiment
	var specs int
	distinct := map[string]bool{}
	for _, id := range []string{"fig3a", "fig9a", "fig9d", "fig10a", "fig10b", "app3", "table2"} {
		e, _ := ByID(id)
		exps = append(exps, e)
		for _, s := range e.specs(rc) {
			specs++
			key, err := memoKey(s.cfg, s.wl)
			if err != nil {
				t.Fatal(err)
			}
			distinct[key] = true
		}
	}
	if len(distinct) >= specs {
		t.Fatalf("%d specs, %d distinct: the set shares no runs", specs, len(distinct))
	}
	if _, err := RunAll(rc, exps); err != nil {
		t.Fatal(err)
	}
	if CacheSize() != len(distinct) {
		t.Errorf("RunAll memoized %d runs, want the %d distinct specs", CacheSize(), len(distinct))
	}
	ClearCache()
	if CacheSize() != 0 {
		t.Error("ClearCache left entries")
	}
}

// TestMemoKeyByValue pins the run memo's key to the config's value: an
// option struct changed in place must change the key (a key built from
// the pointer's address would not), and distinct pointers to equal values
// must share one, so the memo still dedupes.
func TestMemoKeyByValue(t *testing.T) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	tun := &hostsim.Tuning{DCAHazardFactor: 0.07}
	cfg := Default().config(hostsim.AllOptimizations())
	cfg.Tuning = tun
	k1, err := memoKey(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	tun.DCAHazardFactor = -1
	k2, err := memoKey(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("changing *Tuning in place left the memo key unchanged")
	}

	a, b := cfg, cfg
	a.Tuning = &hostsim.Tuning{TSQBytes: 1 << 18}
	b.Tuning = &hostsim.Tuning{TSQBytes: 1 << 18}
	a.Fabric = &hostsim.FabricOptions{Hosts: 4}
	b.Fabric = &hostsim.FabricOptions{Hosts: 4}
	a.CostScale = map[string]float64{"x": 2, "y": 3}
	b.CostScale = map[string]float64{"y": 3, "x": 2}
	ka, err := memoKey(a, wl)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := memoKey(b, wl)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("equal configs behind distinct pointers got different keys:\n%s\n%s", ka, kb)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"wide-cell-value", "1"}},
		Notes:   []string{"hello"},
	}
	s := tbl.String()
	for _, want := range []string{"== x: demo ==", "wide-cell-value", "long-column", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
}

func TestCSVAndMarkdownRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"v,1", `say "hi"`}, {"2", "3"}},
		Notes:   []string{"a note"},
	}
	csv := tbl.CSV()
	wantCSV := "a,b\n\"v,1\",\"say \"\"hi\"\"\"\n2,3\n"
	if csv != wantCSV {
		t.Errorf("CSV:\n%q\nwant:\n%q", csv, wantCSV)
	}
	md := tbl.Markdown()
	for _, want := range []string{"### x: demo", "| a | b |", "|---|---|", "| 2 | 3 |", "*a note*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestOrdering(t *testing.T) {
	cases := []struct {
		a, b string
	}{
		{"fig3a", "fig3b"},
		{"fig3f", "fig4"},
		{"fig9d", "fig10a"},
		{"fig13c", "table2"},
	}
	for _, c := range cases {
		if !less(c.a, c.b) {
			t.Errorf("%s should sort before %s", c.a, c.b)
		}
		if less(c.b, c.a) {
			t.Errorf("%s should not sort before %s", c.b, c.a)
		}
	}
}
