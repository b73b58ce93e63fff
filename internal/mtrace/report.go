package mtrace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hostsim/internal/stage"
)

// Band is one percentile band's per-stage latency attribution: the mean
// decomposition of just the messages whose end-to-end latency ranks
// inside the band.
type Band struct {
	Name      string // "p0-p50" … "p999-max"
	Count     int64
	MeanTotal int64               // mean end-to-end ns of the band's messages
	Stages    [NumMsgStages]int64 // mean ns per stage, stage.Message order
}

// bandBounds are the report's percentile cut points.
var bandBounds = []struct {
	name string
	lo   float64
	hi   float64
}{
	{"p0-p50", 0, 0.50},
	{"p50-p90", 0.50, 0.90},
	{"p90-p99", 0.90, 0.99},
	{"p99-p999", 0.99, 0.999},
	{"p999-max", 0.999, 1},
}

// Summary is the tracer's tail-attribution report: overall quantiles
// from the log-linear engine plus the per-band stage decomposition from
// the exact rank-ordered records.
type Summary struct {
	Count     int64 // completed messages (including truncated)
	Dropped   int64
	Truncated int64
	P50       int64 // ns, log-linear quantiles over all completions
	P90       int64
	P99       int64
	P999      int64
	Max       int64
	Bands     []Band
}

// Summary builds the report. Band ranks are exact: pointers to the
// retained records, which stay in place, are ordered by (total, completion
// time, flow, id) — a total order, so the banding is deterministic — and
// cut at floor(q*n).
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	s := Summary{
		Count:     t.hist.Count(),
		Dropped:   t.dropped,
		Truncated: t.truncated,
		P50:       t.hist.Quantile(0.50),
		P90:       t.hist.Quantile(0.90),
		P99:       t.hist.Quantile(0.99),
		P999:      t.hist.Quantile(0.999),
		Max:       t.hist.Max(),
	}
	recs := make([]*Record, 0, t.recs.Len())
	for _, c := range t.recs.Chunks() {
		for i := range c {
			recs = append(recs, &c[i])
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Total != b.Total {
			return a.Total < b.Total
		}
		if a.Done != b.Done {
			return a.Done < b.Done
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		return a.ID < b.ID
	})
	n := len(recs)
	for _, bb := range bandBounds {
		lo, hi := int(bb.lo*float64(n)), int(bb.hi*float64(n))
		if bb.hi == 1 {
			hi = n
		}
		b := Band{Name: bb.name, Count: int64(hi - lo)}
		if b.Count > 0 {
			var totalSum int64
			var stageSum [NumMsgStages]int64
			for _, r := range recs[lo:hi] {
				totalSum += r.Total
				for i, v := range r.Stages {
					stageSum[i] += v
				}
			}
			b.MeanTotal = totalSum / b.Count
			for i := range stageSum {
				b.Stages[i] = stageSum[i] / b.Count
			}
		}
		s.Bands = append(s.Bands, b)
	}
	return s
}

// durCell renders a nanosecond value as a wall-time duration.
func durCell(ns int64) string { return time.Duration(ns).String() }

// Format renders the report as an aligned text table, byte-deterministic
// for a given run: a header line, the log-linear quantiles, then one row
// per percentile band with the mean per-stage decomposition of that
// band's messages.
func (s Summary) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "messages %d   dropped %d   truncated %d\n",
		s.Count, s.Dropped, s.Truncated)
	fmt.Fprintf(&sb, "quantiles   p50 %s   p90 %s   p99 %s   p999 %s   max %s\n",
		durCell(s.P50), durCell(s.P90), durCell(s.P99), durCell(s.P999), durCell(s.Max))
	fmt.Fprintf(&sb, "%-10s %9s %12s", "band", "count", "total")
	for i := 0; i < NumMsgStages; i++ {
		fmt.Fprintf(&sb, " %12s", stage.Message[i].String())
	}
	sb.WriteByte('\n')
	for _, b := range s.Bands {
		fmt.Fprintf(&sb, "%-10s %9d %12s", b.Name, b.Count, durCell(b.MeanTotal))
		for _, v := range b.Stages {
			fmt.Fprintf(&sb, " %12s", durCell(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CheckTailReport checks a report written by Summary.Format: it opens
// with the "messages N" header and has one row per percentile band.
func CheckTailReport(data []byte) (string, error) {
	var n int64
	if _, err := fmt.Sscanf(string(data), "messages %d", &n); err != nil || n < 0 {
		return "", fmt.Errorf("mtrace: tail report lacks its \"messages N\" header")
	}
	for _, bb := range bandBounds {
		if !strings.Contains(string(data), "\n"+bb.name+" ") {
			return "", fmt.Errorf("mtrace: tail report lacks the %s band row", bb.name)
		}
	}
	return fmt.Sprintf("%d messages, all %d bands present", n, len(bandBounds)), nil
}
