package figures

import (
	"strings"
	"testing"
)

// renderAll regenerates the given experiments from a cold cache at the
// given parallelism and returns the concatenated text and CSV renderings
// — exactly what cmd/figures would print.
func renderAll(t *testing.T, ids []string, jobs int) (text, csv string) {
	t.Helper()
	ClearCache()
	rc := quick()
	rc.Jobs = jobs
	var exps []Experiment
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		exps = append(exps, e)
	}
	tables, err := RunAll(rc, exps)
	if err != nil {
		t.Fatal(err)
	}
	var tb, cb strings.Builder
	for _, tbl := range tables {
		tb.WriteString(tbl.String())
		cb.WriteString(tbl.CSV())
	}
	return tb.String(), cb.String()
}

// TestDeterminismAcrossJobs is the parallelism contract: regenerating
// figures at -jobs 8 produces byte-identical text and CSV output to
// -jobs 1. The set below mixes memo-sharing sub-figures (3a-3d share the
// ladder runs), a large grid sweep (3e), a buffer sweep (3f), a fabric
// ladder whose batch is dispatched in reverse (fab1, 64 hosts first), a
// flow-count x ladder grid (5a), a loss sweep (9a), a table whose rows
// are relative to its first run (12a), a Tuning ablation (abl1), a label
// chosen from its run's result (ext4), an appendix table that shares
// Fig. 10's runs (app3) and a table with no runs (table2).
func TestDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	ids := []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig5a", "fig9a",
		"fig12a", "table2", "ext4", "abl1", "app3", "fab1"}
	text1, csv1 := renderAll(t, ids, 1)
	text8, csv8 := renderAll(t, ids, 8)
	if text1 != text8 {
		t.Errorf("text output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", text1, text8)
	}
	if csv1 != csv8 {
		t.Errorf("CSV output differs between -jobs 1 and -jobs 8")
	}
	if !strings.Contains(text1, "fig3e") || !strings.Contains(text1, "table2") || !strings.Contains(csv1, "rx-buffer") {
		t.Error("rendered output suspiciously incomplete")
	}
}
