package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"hostsim/internal/chunk"
	"hostsim/internal/sim"
)

// The sampling cadence and ring capacity of every timeline a run records:
// the measurement timeline, the socket snapshots and the fabric
// time-series. Only the cadence is configurable, per timeline.
const (
	DefaultInterval   = 100 * time.Microsecond
	DefaultMaxSamples = 4096
)

// Sampler snapshots a registry on a fixed simulated-time interval into a
// bounded ring of samples (oldest evicted first), giving a time-resolved
// view of the run without unbounded memory.
//
// Most metrics hold still between samples, so the ring stores change
// points rather than rows: the oldest retained sample in full (base),
// then for each later sample the (column, value) pairs whose bits differ
// from the sample before it. Comparing math.Float64bits keeps -0, NaN
// payloads and infinities exact. Evicting the oldest sample folds the
// next sample's changes into base. The change points and the samples are
// chunk.Logs, which grow without copying and release whole dead chunks
// as the ring moves on.
type Sampler struct {
	eng      *sim.Engine
	reg      *Registry
	interval time.Duration

	max     int               // DefaultMaxSamples; tests lower it
	samples chunk.Log[sample] // positions first.. are retained
	first   int               // position of the oldest retained sample
	base    []float64         // values of the oldest retained sample
	log     chunk.Log[change] // change points of samples first+1..
	last    []float64         // values of the newest sample
	row     []float64         // Registry.ReadInto buffer, reused every sample
	evicted int64
	started bool
}

// sample is one sample instant and the log position one past its changes.
type sample struct {
	at  time.Duration
	end int
}

// change is one change point: column col took value v.
type change struct {
	col int32
	v   float64
}

// diff appends to log the columns of row whose bits differ from last and
// copies them into last, which must be at least as wide as row.
func diff(log *chunk.Log[change], last, row []float64) {
	last = last[:len(row)]
	for c, v := range row {
		if math.Float64bits(v) != math.Float64bits(last[c]) {
			log.Append(change{int32(c), v})
			last[c] = v
		}
	}
}

// NewSampler builds a sampler over reg that samples every interval (0 =
// DefaultInterval) into a ring of DefaultMaxSamples samples.
func NewSampler(eng *sim.Engine, reg *Registry, interval time.Duration) *Sampler {
	if eng == nil || reg == nil {
		panic("telemetry: nil engine or registry")
	}
	if interval < 0 {
		panic("telemetry: negative sample interval")
	}
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Sampler{eng: eng, reg: reg, interval: interval, max: DefaultMaxSamples}
}

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
// Metrics registered since the previous sample read 0 before it.
func (s *Sampler) Sample() {
	s.row = s.reg.ReadInto(s.row)
	for len(s.last) < len(s.row) {
		s.last = append(s.last, 0)
	}
	if s.Count() == 0 {
		s.base = append(s.base[:0], s.row...)
		copy(s.last, s.row)
	} else {
		diff(&s.log, s.last, s.row)
	}
	s.samples.Append(sample{s.eng.Now().Duration(), s.log.Len()})
	if s.Count() > s.max {
		s.evict()
	}
}

// evict drops the oldest retained sample, folding its successor's changes
// into base, and releases the chunks only evicted samples still use.
func (s *Sampler) evict() {
	lo, hi := s.samples.At(s.first).end, s.samples.At(s.first+1).end
	for p := lo; p < hi; p++ {
		c := s.log.At(p)
		for int(c.col) >= len(s.base) {
			s.base = append(s.base, 0)
		}
		s.base[c.col] = c.v
	}
	s.first++
	s.evicted++
	s.log.Release(hi)
	s.samples.Release(s.first)
}

// Count returns the number of retained samples.
func (s *Sampler) Count() int { return s.samples.Len() - s.first }

// Evicted returns how many samples the ring has discarded.
func (s *Sampler) Evicted() int64 { return s.evicted }

// Timeline returns the retained samples, oldest first, one column per
// registered metric. Sample never rewrites a stored change point, so the
// Timeline shares the change log's chunks rather than copying them; later
// samples leave it unchanged.
func (s *Sampler) Timeline() *Timeline {
	n := s.Count()
	t := &Timeline{Names: s.reg.Names(), base: make([]float64, s.reg.Len())}
	copy(t.base, s.base)
	if n == 0 {
		return t
	}
	lo := s.samples.At(s.first).end
	t.Times, t.ends = make([]time.Duration, n), make([]int, n)
	for i := range t.ends {
		sm := s.samples.At(s.first + i)
		t.Times[i], t.ends[i] = sm.at, sm.end-lo
	}
	t.log = s.log.Slice(lo, s.log.Len())
	return t
}

// Timeline is a sampled multi-metric timeseries: one column per metric
// name, one row per sample instant (simulated time since the start of the
// run), oldest first. It stores its rows as change points (see Sampler);
// Row and Each rebuild them.
type Timeline struct {
	Names []string
	Times []time.Duration

	base []float64         // row 0, one value per name
	log  chunk.Log[change] // the changes of rows 1.. in order
	ends []int             // ends[i]: log position one past row i's changes
}

// add appends a row sampled at at. prev holds the previous row's values
// (unused before the first row); add returns it updated to row's. The
// first row is kept as base, so the caller must not reuse it.
func (t *Timeline) add(at time.Duration, row, prev []float64) []float64 {
	if len(t.Times) == 0 {
		t.base = row
		prev = append(prev[:0], row...)
	} else {
		diff(&t.log, prev, row)
	}
	t.Times = append(t.Times, at)
	t.ends = append(t.ends, t.log.Len())
	return prev
}

// Row returns a fresh copy of row i.
func (t *Timeline) Row(i int) []float64 {
	row := make([]float64, len(t.Names))
	copy(row, t.base)
	n := t.ends[i]
	for _, c := range t.log.Chunks() {
		if n == 0 {
			break
		}
		c = c[:min(n, len(c))]
		for _, ch := range c {
			row[ch.col] = ch.v
		}
		n -= len(c)
	}
	return row
}

// Each calls fn with every row in order and stops at the first error,
// which it returns. The row slice is reused between calls: fn must not
// retain or modify it.
func (t *Timeline) Each(fn func(i int, row []float64) error) error {
	row := make([]float64, len(t.Names))
	copy(row, t.base)
	chunks := t.log.Chunks()
	k, j, pos := 0, 0, 0 // the change at log position pos is chunks[k][j]
	for i, end := range t.ends {
		for ; pos < end; pos++ {
			if j == len(chunks[k]) {
				k, j = k+1, 0
			}
			ch := chunks[k][j]
			row[ch.col] = ch.v
			j++
		}
		if err := fn(i, row); err != nil {
			return err
		}
	}
	return nil
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
	err := t.Each(func(i int, row []float64) error {
		if _, err := bw.WriteString(strconv.FormatInt(int64(t.Times[i]), 10)); err != nil {
			return err
		}
		for _, v := range row {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if _, err := bw.WriteString(formatValue(v)); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
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
	err := t.Each(func(i int, v []float64) error {
		return enc.Encode(&struct {
			TNs int64     `json:"t_ns"`
			V   []float64 `json:"v"`
		}{TNs: int64(t.Times[i]), V: v})
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadTimeline decodes a timeline written by WriteCSV (a time_ns header)
// or WriteJSONL (a {"names":...} header) and checks its rules: every row
// is as wide as the header, and sample times strictly increase.
func ReadTimeline(data []byte) (*Timeline, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	t := &Timeline{}
	var prev []float64
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
			prev = t.add(at, row.V, prev)
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
	vals = make([]float64, len(t.Times))
	t.Each(func(i int, row []float64) error {
		vals[i] = row[col]
		return nil
	})
	return vals, true
}
