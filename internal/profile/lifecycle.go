package profile

import (
	"fmt"
	"strings"
	"time"

	"hostsim/internal/metrics"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/stage"
	"hostsim/internal/units"
)

// The lifecycle stages are stage.Packet: seven telescoping deltas in
// pipeline order, then the end-to-end total. Each delivered data SKB
// contributes one sample to every stage, so per-stage means sum exactly
// to the end-to-end mean.
const (
	NumStages  = len(stage.Packet)
	StageTotal = NumStages - 1 // app write → app read
)

// StageName returns the canonical slug for a stage index.
func StageName(i int) string { return stage.Packet[i].String() }

// Lifecycle tracks per-packet latency through the eight stamp points.
type Lifecycle struct {
	stages  [NumStages]*metrics.Histogram
	dropped int64 // SKBs skipped for missing/non-monotonic stamps
}

func newLifecycle() Lifecycle {
	var l Lifecycle
	for i := range l.stages {
		l.stages[i] = metrics.NewLatency()
	}
	return l
}

// Record ingests one delivered data SKB at application-read time. SKBs
// with incomplete stamps (pure ACKs, packets written before the warmup
// reset) are counted in dropped and contribute to no stage, keeping the
// telescoping per-stage = total invariant exact.
func (l *Lifecycle) Record(s *skb.SKB, readAt sim.Time) {
	if l == nil {
		return
	}
	ts := [NumStages]sim.Time{
		s.WriteAt, s.TCPTxAt, s.NICTxAt, s.WireAt, s.Born, s.GROAt, s.TCPRxAt, readAt,
	}
	for i := 0; i < NumStages; i++ {
		if ts[i] == 0 || (i > 0 && ts[i] < ts[i-1]) {
			l.dropped++
			return
		}
	}
	for i := 0; i < NumStages-1; i++ {
		l.stages[i].Record(float64(ts[i+1] - ts[i]))
	}
	l.stages[StageTotal].Record(float64(readAt - s.WriteAt))
}

// Reset clears all histograms (warmup boundary).
func (l *Lifecycle) Reset() {
	for _, h := range l.stages {
		h.Reset()
	}
	l.dropped = 0
}

// Breakdown snapshots the histograms into an exportable table, converting
// nanoseconds to cycles at freq.
func (l *Lifecycle) Breakdown(freq units.Frequency) LatencyBreakdown {
	b := LatencyBreakdown{Freq: freq}
	if l == nil {
		return b
	}
	for i, h := range l.stages {
		b.Stages = append(b.Stages, StageLatency{
			Stage:  StageName(i),
			Count:  h.Count(),
			MeanNS: h.Mean(),
			P50NS:  h.Quantile(0.50),
			P90NS:  h.Quantile(0.90),
			P99NS:  h.Quantile(0.99),
		})
	}
	b.Dropped = l.dropped
	return b
}

// StageLatency is one row of the latency-breakdown table.
type StageLatency struct {
	Stage  string
	Count  int64
	MeanNS float64
	P50NS  float64
	P90NS  float64
	P99NS  float64
}

// LatencyBreakdown is the per-packet latency table (the run's Fig. 9
// equivalent): per-stage quantiles in both wall time and cycles.
type LatencyBreakdown struct {
	Freq    units.Frequency
	Stages  []StageLatency
	Dropped int64
}

// cell renders one quantile as "duration/cycles".
func (b LatencyBreakdown) cell(ns float64) string {
	d := time.Duration(int64(ns))
	cyc := int64(ns * float64(b.Freq) / 1e9)
	return fmt.Sprintf("%v/%dc", d, cyc)
}

// Format renders the table as aligned text. Output is byte-deterministic
// for a given breakdown.
func (b LatencyBreakdown) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %18s %18s %18s %18s\n",
		"stage", "samples", "mean", "p50", "p90", "p99")
	for _, s := range b.Stages {
		fmt.Fprintf(&sb, "%-12s %10d %18s %18s %18s %18s\n",
			s.Stage, s.Count, b.cell(s.MeanNS), b.cell(s.P50NS), b.cell(s.P90NS), b.cell(s.P99NS))
	}
	if b.Dropped > 0 {
		fmt.Fprintf(&sb, "# %d skb(s) dropped (incomplete stamps: pure ACKs, pre-warmup writes)\n", b.Dropped)
	}
	return sb.String()
}
