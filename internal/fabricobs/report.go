package fabricobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hostsim/internal/telemetry"
)

// encodeFlows renders a burst's contributing flows as "flow:frames"
// pairs joined by ';' — compact enough for a CSV cell, exact enough for
// CheckReport to re-read.
func encodeFlows(flows []FlowFrames) string {
	var b strings.Builder
	for i, ff := range flows {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d:%d", ff.Flow, ff.Frames)
	}
	return b.String()
}

// fnum renders a float deterministically (shortest round-trip form), the
// same convention as the telemetry timeline writers.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// portCSVHeader is the port-ledger section header of the CSV report. Its
// column names are portJSON's keys, so CheckReport decodes CSV and JSONL
// rows through the same struct.
const portCSVHeader = "port,host,in_frames,forwarded,admission_drops,admission_drop_bytes," +
	"enqueued,delivered,wire_loss_drops,in_flight,ecn_marks,tx_bytes,utilization," +
	"peak_backlog_bytes,peak_occupancy_bytes,hop_mean_ns,hop_p50_ns,hop_p99_ns,hop_max_ns,bursts"

// burstCSVHeader is the microburst section header, burstJSON's keys.
const burstCSVHeader = "port,host,start_ns,duration_ns,peak_backlog_bytes," +
	"peak_occupancy_bytes,frames,admission_drops,truncated,flows"

// WriteReportCSV writes the attribution ledger as CSV: the per-port
// section, a blank line, then the microburst section — one artifact, two
// headed tables. Byte-deterministic for a given run.
func WriteReportCSV(w io.Writer, ports []PortReport, bursts []BurstEvent) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, portCSVHeader)
	for _, p := range ports {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d\n",
			p.Port, p.Host, p.InFrames, p.Forwarded, p.AdmissionDrops, p.AdmissionDropBytes,
			p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight, p.ECNMarks, p.TxBytes,
			fnum(p.Utilization), p.PeakBacklog, p.PeakOccupancy,
			int64(p.HopLatencyMean), int64(p.HopLatencyP50), int64(p.HopLatencyP99),
			int64(p.HopLatencyMax), p.Bursts)
	}
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, burstCSVHeader)
	for _, b := range bursts {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d,%t,%s\n",
			b.Port, b.Host, int64(b.Start), int64(b.Duration), b.PeakBacklog,
			b.PeakOccupancy, b.Frames, b.AdmissionDrops, b.Truncated, encodeFlows(b.Flows))
	}
	return bw.Flush()
}

// portJSON / burstJSON are the JSONL line shapes; the "type" field
// discriminates them so one stream carries the whole report.
type portJSON struct {
	Type               string  `json:"type"` // "port"
	Port               int     `json:"port"`
	Host               string  `json:"host"`
	InFrames           int64   `json:"in_frames"`
	Forwarded          int64   `json:"forwarded"`
	AdmissionDrops     int64   `json:"admission_drops"`
	AdmissionDropBytes int64   `json:"admission_drop_bytes"`
	Enqueued           int64   `json:"enqueued"`
	Delivered          int64   `json:"delivered"`
	WireLossDrops      int64   `json:"wire_loss_drops"`
	InFlight           int64   `json:"in_flight"`
	ECNMarks           int64   `json:"ecn_marks"`
	TxBytes            int64   `json:"tx_bytes"`
	Utilization        float64 `json:"utilization"`
	PeakBacklogBytes   int64   `json:"peak_backlog_bytes"`
	PeakOccupancy      int64   `json:"peak_occupancy_bytes"`
	HopMeanNS          int64   `json:"hop_mean_ns"`
	HopP50NS           int64   `json:"hop_p50_ns"`
	HopP99NS           int64   `json:"hop_p99_ns"`
	HopMaxNS           int64   `json:"hop_max_ns"`
	Bursts             int64   `json:"bursts"`
}

type burstJSON struct {
	Type           string `json:"type"` // "burst"
	Port           int    `json:"port"`
	Host           string `json:"host"`
	StartNS        int64  `json:"start_ns"`
	DurationNS     int64  `json:"duration_ns"`
	PeakBacklog    int64  `json:"peak_backlog_bytes"`
	PeakOccupancy  int64  `json:"peak_occupancy_bytes"`
	Frames         int64  `json:"frames"`
	AdmissionDrops int64  `json:"admission_drops"`
	Truncated      bool   `json:"truncated"`
	Flows          string `json:"flows"` // "flow:frames;..."
}

// WriteReportJSONL writes the ledger as JSON lines: one {"type":"port"}
// object per port, then one {"type":"burst"} object per retained burst.
func WriteReportJSONL(w io.Writer, ports []PortReport, bursts []BurstEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range ports {
		if err := enc.Encode(portJSON{
			Type: "port", Port: p.Port, Host: p.Host,
			InFrames: p.InFrames, Forwarded: p.Forwarded,
			AdmissionDrops: p.AdmissionDrops, AdmissionDropBytes: p.AdmissionDropBytes,
			Enqueued: p.Enqueued, Delivered: p.Delivered,
			WireLossDrops: p.WireLossDrops, InFlight: p.InFlight,
			ECNMarks: p.ECNMarks, TxBytes: p.TxBytes, Utilization: p.Utilization,
			PeakBacklogBytes: p.PeakBacklog, PeakOccupancy: p.PeakOccupancy,
			HopMeanNS: int64(p.HopLatencyMean), HopP50NS: int64(p.HopLatencyP50),
			HopP99NS: int64(p.HopLatencyP99), HopMaxNS: int64(p.HopLatencyMax),
			Bursts: p.Bursts,
		}); err != nil {
			return err
		}
	}
	for _, b := range bursts {
		if err := enc.Encode(burstJSON{
			Type: "burst", Port: b.Port, Host: b.Host,
			StartNS: int64(b.Start), DurationNS: int64(b.Duration),
			PeakBacklog: b.PeakBacklog, PeakOccupancy: b.PeakOccupancy,
			Frames: b.Frames, AdmissionDrops: b.AdmissionDrops,
			Truncated: b.Truncated, Flows: encodeFlows(b.Flows),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CheckReport checks a report written by WriteReportCSV or
// WriteReportJSONL, told apart by content. The ledger is exact on every
// port: in_frames == forwarded + admission_drops and enqueued ==
// delivered + wire_loss_drops + in_flight, with no negative counter. The
// hop-latency quantiles are ordered and utilization lies in [0,1].
// Bursts are sorted by start time. Each burst names a ledger port with
// its host, and its contributing flows carry at most its frames. No port
// retains more bursts than its ledger counts.
func CheckReport(data []byte) (string, error) {
	ports, bursts, err := readReport(data)
	if err != nil {
		return "", err
	}
	if len(ports) == 0 {
		return "", fmt.Errorf("fabricobs: report has no port rows")
	}
	byPort := make(map[int]portJSON, len(ports))
	var drops, marks int64
	for _, p := range ports {
		for _, v := range []int64{p.InFrames, p.Forwarded, p.AdmissionDrops, p.AdmissionDropBytes,
			p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight, p.ECNMarks, p.TxBytes, p.Bursts} {
			if v < 0 {
				return "", fmt.Errorf("fabricobs: port %d (%s): negative counter %d", p.Port, p.Host, v)
			}
		}
		switch {
		case p.InFrames != p.Forwarded+p.AdmissionDrops:
			return "", fmt.Errorf("fabricobs: port %d (%s): ingress ledger inexact: in %d != forwarded %d + admission_drops %d",
				p.Port, p.Host, p.InFrames, p.Forwarded, p.AdmissionDrops)
		case p.Enqueued != p.Delivered+p.WireLossDrops+p.InFlight:
			return "", fmt.Errorf("fabricobs: port %d (%s): egress ledger inexact: enqueued %d != delivered %d + wire_loss %d + in_flight %d",
				p.Port, p.Host, p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight)
		// Quantiles come from a log-bucketed histogram (bucket growth
		// 1.165x) while mean and max are exact, so p99 may land up to one
		// bucket above the true max; order within each family is strict.
		case p.HopP50NS > p.HopP99NS || p.HopMeanNS > p.HopMaxNS ||
			float64(p.HopP99NS) > float64(p.HopMaxNS)*1.166+1:
			return "", fmt.Errorf("fabricobs: port %d (%s): hop-latency quantiles out of order: p50 %d p99 %d mean %d max %d",
				p.Port, p.Host, p.HopP50NS, p.HopP99NS, p.HopMeanNS, p.HopMaxNS)
		case p.Utilization < 0 || p.Utilization > 1.001:
			return "", fmt.Errorf("fabricobs: port %d (%s): utilization %g outside [0,1]", p.Port, p.Host, p.Utilization)
		}
		byPort[p.Port] = p
		drops += p.AdmissionDrops + p.WireLossDrops
		marks += p.ECNMarks
	}
	retained := make(map[int]int64)
	for i, b := range bursts {
		p, ok := byPort[b.Port]
		var flowFrames int64
		for _, pair := range strings.Split(b.Flows, ";") {
			var flow, frames int64
			if _, err := fmt.Sscanf(pair, "%d:%d", &flow, &frames); err != nil && b.Flows != "" {
				return "", fmt.Errorf("fabricobs: burst %d: malformed flow pair %q", i, pair)
			}
			flowFrames += frames
		}
		switch {
		case !ok || b.Host != p.Host:
			return "", fmt.Errorf("fabricobs: burst %d: port %d host %q is not a ledger port", i, b.Port, b.Host)
		case i > 0 && b.StartNS < bursts[i-1].StartNS:
			return "", fmt.Errorf("fabricobs: burst %d: starts at %dns, before burst %d", i, b.StartNS, i-1)
		case b.DurationNS < 0 || b.Frames < 0 || b.AdmissionDrops < 0:
			return "", fmt.Errorf("fabricobs: burst %d: negative duration, frames or drops", i)
		case flowFrames > b.Frames:
			return "", fmt.Errorf("fabricobs: burst %d: contributing flows carry %d frames, burst saw only %d", i, flowFrames, b.Frames)
		}
		if retained[b.Port]++; retained[b.Port] > p.Bursts {
			return "", fmt.Errorf("fabricobs: port %d retains more than the %d bursts its ledger counts", b.Port, p.Bursts)
		}
	}
	return fmt.Sprintf("%d ports, %d bursts, ledger exact (%d drops, %d marks attributed)",
		len(ports), len(bursts), drops, marks), nil
}

// CheckSeries cross-checks a report against its run's time series (a
// Timeline from WriteCSV or WriteJSONL). The series must carry the
// occupancy_bytes column and one portNNN/backlog_bytes column per ledger
// port. A timeline with neither an occupancy_bytes nor a port column is
// not an observatory series, and passes.
func CheckSeries(report, series []byte) error {
	ports, _, err := readReport(report)
	if err != nil {
		return err
	}
	tl, err := telemetry.ReadTimeline(series)
	if err != nil {
		return err
	}
	have := make(map[string]bool, len(tl.Names))
	observatory := false
	for _, n := range tl.Names {
		have[n] = true
		observatory = observatory || n == "occupancy_bytes" || strings.HasPrefix(n, "port")
	}
	if !observatory {
		return nil
	}
	if !have["occupancy_bytes"] {
		return fmt.Errorf("fabricobs: series lacks the occupancy_bytes column")
	}
	for _, p := range ports {
		if col := fmt.Sprintf("port%03d/backlog_bytes", p.Port); !have[col] {
			return fmt.Errorf("fabricobs: series lacks %s for ledger port %d", col, p.Port)
		}
	}
	return nil
}

// readReport decodes either report encoding. The CSV report is first
// rewritten as the JSONL report's lines.
func readReport(data []byte) (ports []portJSON, bursts []burstJSON, err error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] == portCSVHeader {
		if lines, err = csvAsJSONL(lines); err != nil {
			return nil, nil, err
		}
	}
	for i, line := range lines {
		var typ struct {
			Type string `json:"type"`
		}
		if err = json.Unmarshal([]byte(line), &typ); err == nil {
			switch typ.Type {
			case "port":
				ports = append(ports, portJSON{})
				err = json.Unmarshal([]byte(line), &ports[len(ports)-1])
			case "burst":
				bursts = append(bursts, burstJSON{})
				err = json.Unmarshal([]byte(line), &bursts[len(bursts)-1])
			default:
				err = fmt.Errorf("unknown type %q", typ.Type)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("fabricobs: report row %d: %w", i+1, err)
		}
	}
	return ports, bursts, nil
}

// csvAsJSONL rewrites the two CSV sections, the port rows and then the
// burst rows after one blank line and their header, as JSONL rows.
func csvAsJSONL(lines []string) ([]string, error) {
	typ, cols := "port", strings.Split(portCSVHeader, ",")
	var out []string
	for i := 1; i < len(lines); i++ {
		if lines[i] == "" && typ == "port" && i+1 < len(lines) && lines[i+1] == burstCSVHeader {
			typ, cols = "burst", strings.Split(burstCSVHeader, ",")
			i++
			continue
		}
		cells := strings.Split(lines[i], ",")
		if len(cells) != len(cols) {
			return nil, fmt.Errorf("fabricobs: report line %d has %d fields, want %d", i+1, len(cells), len(cols))
		}
		b := []byte(`{"type":"` + typ + `"`)
		for j, c := range cols {
			b = append(strconv.AppendQuote(append(b, ','), c), ':')
			if c == "host" || c == "flows" {
				b = strconv.AppendQuote(b, cells[j])
			} else {
				b = append(b, cells[j]...)
			}
		}
		out = append(out, string(append(b, '}')))
	}
	if typ != "burst" {
		return nil, fmt.Errorf("fabricobs: report lacks the burst section")
	}
	return out, nil
}

// FormatReport renders the ledger as an aligned text table (for stdout).
// Byte-deterministic for a given run.
func FormatReport(ports []PortReport, bursts []BurstEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-12s %10s %10s %9s %10s %10s %9s %8s %7s %6s %9s %9s %7s\n",
		"port", "host", "in", "fwd", "adm-drop", "enq", "deliv", "wire-loss",
		"inflight", "marks", "util", "peak-q", "hop-p99", "bursts")
	for _, p := range ports {
		fmt.Fprintf(&b, "%-5d %-12s %10d %10d %9d %10d %10d %9d %8d %7d %5.1f%% %9s %9v %7d\n",
			p.Port, p.Host, p.InFrames, p.Forwarded, p.AdmissionDrops,
			p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight, p.ECNMarks,
			p.Utilization*100, fmt.Sprintf("%dK", p.PeakBacklog/1024),
			p.HopLatencyP99.Round(time.Microsecond), p.Bursts)
	}
	if len(bursts) > 0 {
		fmt.Fprintf(&b, "\n%-5s %-12s %12s %12s %9s %8s %9s %-5s %s\n",
			"port", "host", "start", "dur", "peak-q", "frames", "adm-drop", "trunc", "flows")
		for _, ev := range bursts {
			fmt.Fprintf(&b, "%-5d %-12s %12v %12v %8sK %8d %9d %-5t %s\n",
				ev.Port, ev.Host, ev.Start, ev.Duration,
				fmt.Sprintf("%d", ev.PeakBacklog/1024), ev.Frames,
				ev.AdmissionDrops, ev.Truncated, encodeFlows(ev.Flows))
		}
	}
	return b.String()
}

// Spans renders the observatory as trace spans for the one Chrome trace
// writer (telemetry.WriteChromeSpans), all on the "fabric" process: the
// time-series becomes counter tracks (shared buffer occupancy plus one
// backlog counter per port) and every retained microburst becomes a
// complete slice on its port's thread row, with peaks, frame counts and
// contributing flows in the args. Each port's row is named after its
// ledger entry's host.
func Spans(ports []PortReport, tl *telemetry.Timeline, bursts []BurstEvent) []telemetry.Span {
	var spans []telemetry.Span
	cols := make(map[string]int, len(tl.Names))
	for i, n := range tl.Names {
		cols[n] = i
	}
	tl.Each(func(i int, row []float64) error {
		at := tl.Times[i]
		if c, ok := cols["occupancy_bytes"]; ok {
			spans = append(spans, telemetry.Span{
				Process: "fabric", Thread: 0, Name: "shared-buffer occupancy",
				StartNS: int64(at), Counter: true, Value: row[c],
			})
		}
		for p, port := range ports {
			c, ok := cols[fmt.Sprintf("port%03d/backlog_bytes", p)]
			if !ok {
				continue
			}
			spans = append(spans, telemetry.Span{
				Process: "fabric", Thread: p + 1, ThreadName: fmt.Sprintf("port%03d (%s)", p, port.Host),
				Name:    fmt.Sprintf("port%03d backlog", p),
				StartNS: int64(at), Counter: true, Value: row[c],
			})
		}
		return nil
	})
	for _, ev := range bursts {
		spans = append(spans, telemetry.Span{
			Process: "fabric", Thread: ev.Port + 1,
			ThreadName: fmt.Sprintf("port%03d (%s)", ev.Port, ev.Host),
			Name:       "microburst", Cat: "burst",
			StartNS: int64(ev.Start), DurNS: int64(ev.Duration),
			Args: map[string]any{
				"peak_backlog_bytes": ev.PeakBacklog,
				"peak_occupancy":     ev.PeakOccupancy,
				"frames":             ev.Frames,
				"admission_drops":    ev.AdmissionDrops,
				"truncated":          ev.Truncated,
				"flows":              encodeFlows(ev.Flows),
			},
		})
	}
	return spans
}
