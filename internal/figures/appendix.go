package figures

import "hostsim"

// The app* experiments regenerate the breakdowns the paper's figures
// reference with "see [7]" (the authors' extended technical report):
// sender-side incast, receiver-side outcast, and the client-side views of
// the RPC and mixed workloads.

func init() {
	register(Experiment{
		ID:     "app1",
		Title:  "Appendix: incast sender-side CPU breakdown",
		Paper:  "Fig. 6 caption: 'See [7] for sender-side CPU breakdown'",
		Runs:   patternSpecs(hostsim.PatternIncast),
		Render: flowsBreakdown("app1", hostsim.PatternIncast, true),
	})
	register(Experiment{
		ID:     "app2",
		Title:  "Appendix: outcast receiver-side CPU breakdown",
		Paper:  "Fig. 7 caption: 'Refer to [7] for receiver-side CPU breakdown'",
		Runs:   patternSpecs(hostsim.PatternOutcast),
		Render: flowsBreakdown("app2", hostsim.PatternOutcast, false),
	})
	register(Experiment{
		ID:    "app3",
		Title: "Appendix: RPC client-side CPU breakdown vs size",
		Paper: "Fig. 10 caption: 'See [7] for client-side CPU breakdown'",
		Runs:  rpcSpecs,
		Render: breakdown("app3", "RPC client-host CPU breakdown vs size", "rpc-size-KB", rpcLabels, true,
			"clients mirror the server's shift from protocol+scheduling to copy as RPCs grow"),
	})
	register(Experiment{
		ID:     "app4",
		Title:  "Appendix: mixed-workload client-side CPU breakdown",
		Paper:  "Fig. 11 caption: 'refer to [7] for client-side CPU breakdown'",
		Runs:   mixedSpecs,
		Render: breakdown("app4", "Mixed workload: sender-host (client-side) CPU breakdown", "short-flows", shortLabels, true),
	})
	register(Experiment{
		ID:    "app5",
		Title: "Appendix: all-to-all sender-side CPU breakdown",
		Paper: "Fig. 8 caption: 'See [7] for sender-side CPU breakdown'",
		Runs:  patternSpecs(hostsim.PatternAllToAll),
		Render: breakdown("app5", "All-to-all sender-side CPU breakdown", "flows", gridLabels, true,
			"sender-side scheduling share grows with thread count per core, as §3.5 describes"),
	})
}
