package figures

import (
	"fmt"

	"hostsim"
	"hostsim/internal/nic"
	"hostsim/internal/skb"
)

func init() {
	register(Experiment{
		ID:     "table2",
		Title:  "Receiver-side flow steering mechanisms",
		Paper:  "RSS hashes the 4-tuple; RFS/aRFS find the application's core",
		Render: table2,
	})
}

// table2 demonstrates the core-selection behaviour of the steering
// mechanisms of Table 2 for a set of flows whose applications run on
// known cores.
func table2(RunConfig, []*hostsim.Result) (*Table, error) {
	appCores := []int{-1, 3, 9, 15, 21} // by flow id; flow 0 is unused
	all := make([]int, 24)
	for i := range all {
		all[i] = i
	}
	rss := nic.RSS{Cores: all}
	arfs := nic.Pinned{Table: appCores, Fallback: rss}
	// The paper's deterministic "aRFS disabled" worst case: IRQs pinned
	// to a single remote core.
	worst := nic.FixedCore(6)

	t := &Table{
		ID:    "table2",
		Title: "Core selected for IRQ processing per mechanism",
		Columns: []string{"flow", "app-core", "RSS(hash)", "aRFS(app core)",
			"worst-case pin", "aRFS==app"},
	}
	for f := skb.FlowID(1); f <= 4; f++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%d", appCores[f]),
			fmt.Sprintf("%d", rss.QueueFor(f)),
			fmt.Sprintf("%d", arfs.QueueFor(f)),
			fmt.Sprintf("%d", worst.QueueFor(f)),
			fmt.Sprintf("%v", arfs.QueueFor(f) == appCores[f]),
		})
	}
	t.Notes = append(t.Notes,
		"RPS/RFS are the software analogues of RSS/aRFS: same core selection, performed by the kernel instead of the NIC")
	return t, nil
}
