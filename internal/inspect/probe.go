package inspect

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hostsim/internal/chunk"
	"hostsim/internal/sim"
	"hostsim/internal/tcp"
)

// ProbeRecord is one tcp_probe-style trace record: a per-ACK sample of the
// connection's congestion state, or a loss/recovery event.
type ProbeRecord struct {
	// At is the emitting core's logical clock (ctx.Now()), not the engine's
	// dispatch time, so it is non-decreasing only per connection (host and
	// flow); see ProbeTrace.
	At         sim.Time
	Host       string
	Flow       int32
	Kind       tcp.ProbeKind
	AckedBytes int64
	Cwnd       int64
	Ssthresh   int64
	SRTTNs     int64
	InFlight   int64
	SndUna     int64
	SndNxt     int64
}

// ProbeTrace accumulates tcp_probe records from every hooked connection,
// in emission order, which is deterministic. Each record is stamped with
// the simulated time of the core that emitted it, so one connection's
// records are time-ordered, but records of different connections can
// interleave out of time order.
//
// Records are kept in a chunk.Log, which never copies them as it grows:
// a trace allocates its records' bytes plus less than one chunk.
type ProbeTrace struct {
	max       int
	truncated int64
	recs      chunk.Log[ProbeRecord]
}

// NewProbeTrace builds a trace bounded at DefaultMaxProbeEvents records.
func NewProbeTrace() *ProbeTrace {
	return &ProbeTrace{max: DefaultMaxProbeEvents}
}

// Hook returns the tcp.ProbeFunc to install on a connection of the named
// host. The callback copies the event into the trace and reads nothing
// else — a pure observer.
func (t *ProbeTrace) Hook(host string) tcp.ProbeFunc {
	return func(ev tcp.ProbeEvent) {
		if t.recs.Len() >= t.max {
			t.truncated++
			return
		}
		t.recs.Append(ProbeRecord{
			At: ev.At, Host: host, Flow: int32(ev.Flow), Kind: ev.Kind,
			AckedBytes: int64(ev.AckedBytes),
			Cwnd:       int64(ev.Cwnd),
			Ssthresh:   int64(ev.Ssthresh),
			SRTTNs:     ev.SRTT.Nanoseconds(),
			InFlight:   int64(ev.InFlight),
			SndUna:     ev.SndUna,
			SndNxt:     ev.SndNxt,
		})
	}
}

// Len returns the number of recorded events.
func (t *ProbeTrace) Len() int { return t.recs.Len() }

// Truncated returns how many events arrived after the trace filled up.
func (t *ProbeTrace) Truncated() int64 { return t.truncated }

// Records returns the recorded events in emission order. The first call
// after more than one chunk filled flattens them into one slice, which
// becomes the trace's backing store: treat it as read-only.
func (t *ProbeTrace) Records() []ProbeRecord { return t.recs.Flatten() }

// probeCSVHeader heads the CSV; its columns are the JSON-lines keys.
const probeCSVHeader = "time_ns,host,flow,event,acked_bytes,cwnd_bytes,ssthresh_bytes,srtt_ns,inflight_bytes,snd_una,snd_nxt"

// WriteCSV writes the trace as CSV with a fixed header, one row per
// record in engine dispatch order, deterministic formatting. time_ns is
// non-decreasing per (host, flow) only, which is what CheckProbe checks;
// a consumer that merges flows must sort stably by time_ns.
func (t *ProbeTrace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(probeCSVHeader + "\n"); err != nil {
		return err
	}
	for _, c := range t.recs.Chunks() {
		for i := range c {
			r := &c[i]
			bw.WriteString(strconv.FormatInt(int64(r.At), 10))
			bw.WriteByte(',')
			bw.WriteString(r.Host)
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(r.Flow), 10))
			bw.WriteByte(',')
			bw.WriteString(r.Kind.String())
			for _, v := range [...]int64{r.AckedBytes, r.Cwnd, r.Ssthresh, r.SRTTNs, r.InFlight, r.SndUna, r.SndNxt} {
				bw.WriteByte(',')
				bw.WriteString(strconv.FormatInt(v, 10))
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the trace as one JSON object per line, matching the
// CSV column names, in WriteCSV's record order.
func (t *ProbeTrace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range t.recs.Chunks() {
		for i := range c {
			r := &c[i]
			_, err := fmt.Fprintf(bw,
				`{"time_ns":%d,"host":%q,"flow":%d,"event":%q,"acked_bytes":%d,"cwnd_bytes":%d,"ssthresh_bytes":%d,"srtt_ns":%d,"inflight_bytes":%d,"snd_una":%d,"snd_nxt":%d}`+"\n",
				int64(r.At), r.Host, r.Flow, r.Kind.String(), r.AckedBytes, r.Cwnd,
				r.Ssthresh, r.SRTTNs, r.InFlight, r.SndUna, r.SndNxt)
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// CheckProbe checks a trace written by WriteCSV or WriteJSONL, told apart
// by content. Every record carries exactly the header's columns, a known
// event name, and a time_ns no earlier than its connection's (host and
// flow) record before it.
func CheckProbe(data []byte) (string, error) {
	columns := strings.Count(probeCSVHeader, ",") + 1
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	csv := !strings.HasPrefix(lines[0], "{")
	if csv {
		if lines[0] != probeCSVHeader {
			return "", fmt.Errorf("inspect: probe header %q, want %q", lines[0], probeCSVHeader)
		}
		lines = lines[1:]
	}
	known := map[string]bool{}
	for k := tcp.ProbeKind(0); k.String() != "unknown"; k++ {
		known[k.String()] = true
	}
	last, losses := map[string]int64{}, 0
	for i, line := range lines {
		var at int64
		var conn, event string
		var err error
		f := strings.Split(line, ",")
		switch {
		case !csv:
			var rec map[string]json.RawMessage
			if err = json.Unmarshal([]byte(line), &rec); err == nil && len(rec) != columns {
				err = fmt.Errorf("%d keys, want %d", len(rec), columns)
			}
			if err == nil {
				conn = string(rec["host"]) + "," + string(rec["flow"])
				err = errors.Join(json.Unmarshal(rec["time_ns"], &at), json.Unmarshal(rec["event"], &event))
			}
		case len(f) != columns:
			err = fmt.Errorf("%d columns, want %d", len(f), columns)
		default:
			conn, event = f[1]+","+f[2], f[3]
			at, err = strconv.ParseInt(f[0], 10, 64)
		}
		switch {
		case err != nil:
			return "", fmt.Errorf("inspect: probe record %d: %w", i+1, err)
		case !known[event]:
			return "", fmt.Errorf("inspect: probe record %d: unknown event %q", i+1, event)
		case at < last[conn]:
			return "", fmt.Errorf("inspect: probe record %d: time %dns before %dns on its connection", i+1, at, last[conn])
		}
		last[conn] = at
		if event != tcp.ProbeAck.String() {
			losses++
		}
	}
	return fmt.Sprintf("%d records on %d connections, %d loss/recovery events, times non-decreasing per connection",
		len(lines), len(last), losses), nil
}
