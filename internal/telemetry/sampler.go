package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hostsim/internal/sim"
)

// Sampler snapshots a registry on a fixed simulated-time interval into a
// bounded ring of samples (oldest evicted first), giving a time-resolved
// view of the run without unbounded memory.
type Sampler struct {
	eng      *sim.Engine
	reg      *Registry
	interval time.Duration

	max     int
	times   []sim.Time
	rows    [][]float64
	next    int // ring write position once full
	wrapped bool
	evicted int64
	started bool
}

// NewSampler builds a sampler over reg with the given interval and ring
// capacity (maximum retained samples).
func NewSampler(eng *sim.Engine, reg *Registry, interval time.Duration, maxSamples int) *Sampler {
	if eng == nil || reg == nil {
		panic("telemetry: nil engine or registry")
	}
	if interval <= 0 {
		panic("telemetry: non-positive sample interval")
	}
	if maxSamples <= 0 {
		panic("telemetry: non-positive sample capacity")
	}
	return &Sampler{eng: eng, reg: reg, interval: interval, max: maxSamples}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start schedules the first sample at absolute simulated time at (or now,
// if at is in the past) and every interval thereafter. Sampling is a pure
// read of simulation state: it never perturbs the simulated system.
func (s *Sampler) Start(at sim.Time) {
	if s.started {
		return
	}
	s.started = true
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
	var tick func()
	tick = func() {
		s.Sample()
		s.eng.After(s.interval, tick)
	}
	s.eng.At(at, tick)
}

// Sample takes one snapshot of the registry at the engine's current time.
func (s *Sampler) Sample() {
	row := s.reg.Read()
	if len(s.times) < s.max {
		s.times = append(s.times, s.eng.Now())
		s.rows = append(s.rows, row)
		return
	}
	s.times[s.next] = s.eng.Now()
	s.rows[s.next] = row
	s.next = (s.next + 1) % s.max
	s.wrapped = true
	s.evicted++
}

// Count returns the number of retained samples.
func (s *Sampler) Count() int { return len(s.times) }

// Evicted returns how many samples the ring has discarded.
func (s *Sampler) Evicted() int64 { return s.evicted }

// Timeline returns the retained samples, oldest first. Sample never
// writes into a row once it has stored it, so full-width rows are shared
// rather than copied; only rows sampled before a later metric
// registration are copied, padded to one column per name. Callers must
// treat the rows as read-only.
func (s *Sampler) Timeline() *Timeline {
	t := &Timeline{
		Names: s.reg.Names(),
		Times: make([]time.Duration, 0, len(s.times)),
		Rows:  make([][]float64, 0, len(s.rows)),
	}
	appendFrom := func(i int) {
		t.Times = append(t.Times, s.times[i].Duration())
		row := s.rows[i]
		if pad := len(t.Names) - len(row); pad > 0 {
			row = append(row[:len(row):len(row)], make([]float64, pad)...)
		}
		t.Rows = append(t.Rows, row)
	}
	if s.wrapped {
		for i := s.next; i < len(s.times); i++ {
			appendFrom(i)
		}
		for i := 0; i < s.next; i++ {
			appendFrom(i)
		}
	} else {
		for i := range s.times {
			appendFrom(i)
		}
	}
	return t
}

// Timeline is a sampled multi-metric timeseries: one column per metric
// name, one row per sample instant (simulated time since the start of the
// run), oldest first.
type Timeline struct {
	Names []string
	Times []time.Duration
	Rows  [][]float64
}

// Len returns the number of samples.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.Times)
}

// formatValue renders a sample deterministically (shortest round-trip
// representation, so identical runs produce identical bytes).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the timeline as CSV: a header of time_ns plus the
// metric names, then one row per sample.
func (t *Timeline) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_ns"); err != nil {
		return err
	}
	for _, n := range t.Names {
		if _, err := fmt.Fprintf(bw, ",%s", n); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for i, at := range t.Times {
		if _, err := bw.WriteString(strconv.FormatInt(int64(at), 10)); err != nil {
			return err
		}
		for _, v := range t.Rows[i] {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if _, err := bw.WriteString(formatValue(v)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the timeline as JSON lines: a header object
// {"names":[...]} followed by one {"t_ns":...,"v":[...]} object per
// sample. Every line is a complete JSON document.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	header := struct {
		Names []string `json:"names"`
	}{Names: t.Names}
	if header.Names == nil {
		header.Names = []string{}
	}
	if err := enc.Encode(&header); err != nil {
		return err
	}
	for i, at := range t.Times {
		row := struct {
			TNs int64     `json:"t_ns"`
			V   []float64 `json:"v"`
		}{TNs: int64(at), V: t.Rows[i]}
		if err := enc.Encode(&row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTimeline decodes a timeline written by WriteCSV (a time_ns header)
// or WriteJSONL (a {"names":...} header) and checks its rules: every row
// is as wide as the header, and sample times strictly increase.
func ReadTimeline(data []byte) (*Timeline, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	t := &Timeline{}
	cols := strings.Split(lines[0], ",")
	csv := cols[0] == "time_ns"
	if csv {
		t.Names = cols[1:]
	} else if err := json.Unmarshal([]byte(lines[0]), &struct {
		Names *[]string `json:"names"`
	}{&t.Names}); err != nil {
		return nil, fmt.Errorf("telemetry: timeline header: %w", err)
	}
	for i, line := range lines[1:] {
		var row struct {
			T int64     `json:"t_ns"`
			V []float64 `json:"v"`
		}
		var err error
		if csv {
			cells := strings.Split(line, ",")
			row.T, err = strconv.ParseInt(cells[0], 10, 64)
			for _, c := range cells[1:] {
				v, perr := strconv.ParseFloat(c, 64)
				if perr != nil {
					err = perr
				}
				row.V = append(row.V, v)
			}
		} else {
			err = json.Unmarshal([]byte(line), &row)
		}
		switch at := time.Duration(row.T); {
		case err != nil:
			return nil, fmt.Errorf("telemetry: timeline line %d: %w", i+2, err)
		case len(row.V) != len(t.Names):
			return nil, fmt.Errorf("telemetry: timeline line %d: %d values for %d metrics", i+2, len(row.V), len(t.Names))
		case len(t.Times) > 0 && at <= t.Times[len(t.Times)-1]:
			return nil, fmt.Errorf("telemetry: timeline line %d: time %dns not after %dns", i+2, at, t.Times[len(t.Times)-1])
		default:
			t.Times, t.Rows = append(t.Times, at), append(t.Rows, row.V)
		}
	}
	return t, nil
}

// CheckTimeline is ReadTimeline with a one-line summary.
func CheckTimeline(data []byte) (string, error) {
	t, err := ReadTimeline(data)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d samples x %d metrics, times strictly increasing", t.Len(), len(t.Names)), nil
}

// Column returns the values of one metric across all samples; ok is false
// if the name is not in the timeline.
func (t *Timeline) Column(name string) (vals []float64, ok bool) {
	col := -1
	for i, n := range t.Names {
		if n == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil, false
	}
	vals = make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		vals[i] = row[col]
	}
	return vals, true
}
