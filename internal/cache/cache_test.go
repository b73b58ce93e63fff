package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hostsim/internal/units"
)

func newTestDCA(capacityPages, ways int) *DCA {
	return newDCA(DCAConfig{
		Capacity: units.Bytes(capacityPages) * 4 * units.KB,
		PageSize: 4 * units.KB,
	}, ways)
}

// Consuming a resident page counts a hit and invalidates it; consuming it
// again counts a miss and changes nothing.
func TestInsertProbeDrop(t *testing.T) {
	d := newTestDCA(64, 8)
	d.Insert(1)
	if !d.Consume(1) {
		t.Fatal("page 1 should be resident after Insert")
	}
	if d.Contains(1) {
		t.Fatal("page 1 should be gone after Consume")
	}
	if d.Consume(1) {
		t.Fatal("a consumed page should miss")
	}
	st := d.Stats()
	if st.Inserts != 1 || st.Hits != 1 || st.Misses != 1 || st.Drops != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCapacityAndGeometry(t *testing.T) {
	d := newTestDCA(64, 8)
	if d.Capacity() != 64 {
		t.Errorf("Capacity = %d, want 64", d.Capacity())
	}
	// 3MB at 4KB pages, 8 ways -> 768 slots, 96 sets.
	d = NewDCA(DCAConfig{Capacity: 3 * units.MB, PageSize: 4 * units.KB})
	if d.Capacity() != 768 {
		t.Errorf("3MB DCA capacity = %d pages, want 768", d.Capacity())
	}
}

func TestEvictionOnSetOverflow(t *testing.T) {
	// 1 set x 2 ways: third distinct insert must evict the LRU.
	d := newTestDCA(2, 2)
	d.Insert(10)
	d.Insert(20)
	d.Insert(30)
	if d.Contains(10) {
		t.Error("page 10 should have been evicted (LRU)")
	}
	if !d.Contains(20) || !d.Contains(30) {
		t.Error("pages 20 and 30 should be resident")
	}
	if d.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", d.Stats().Evictions)
	}
}

func TestReinsertRefreshesLRU(t *testing.T) {
	d := newTestDCA(2, 2)
	d.Insert(10)
	d.Insert(20)
	d.Insert(10) // refresh 10: now 20 is LRU
	d.Insert(30)
	if d.Contains(20) {
		t.Error("page 20 should have been evicted after 10 was refreshed")
	}
	if !d.Contains(10) {
		t.Error("refreshed page 10 should survive")
	}
	// Refresh must not double-count inserts.
	if got := d.Stats().Inserts; got != 3 {
		t.Errorf("Inserts = %d, want 3", got)
	}
}

func TestDropNonResidentIsNoop(t *testing.T) {
	d := newTestDCA(8, 8)
	d.Drop(999)
	if d.Stats().Drops != 0 {
		t.Error("dropping a non-resident page should not count")
	}
}

func TestResidencyNeverExceedsCapacity(t *testing.T) {
	d := newTestDCA(32, 4)
	for i := PageID(0); i < 10000; i++ {
		d.Insert(i)
		if d.Resident() > d.Capacity() {
			t.Fatalf("resident %d exceeds capacity %d", d.Resident(), d.Capacity())
		}
	}
}

// Property: under any interleaving of inserts/drops, resident count equals
// inserts - evictions - drops and never exceeds capacity.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []int16) bool {
		d := newTestDCA(16, 4)
		for _, op := range ops {
			p := PageID(op % 64)
			if op%3 == 0 {
				d.Drop(p)
			} else {
				d.Insert(p)
			}
		}
		st := d.Stats()
		if int64(d.Resident()) != st.Inserts-st.Evictions-st.Drops {
			return false
		}
		return d.Resident() <= d.Capacity()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The descriptor-count hazard: at the same (sub-capacity) occupancy, a
// higher hazard probability — what a large Rx ring induces — must produce
// a markedly higher miss rate. This is the mechanism behind Fig. 3e.
func TestHazardRaisesMissRateAtSubCapacityOccupancy(t *testing.T) {
	run := func(hazard float64) float64 {
		d := NewDCA(DCAConfig{
			Capacity: 3 * units.MB,
			PageSize: 4 * units.KB,
			Rand:     rand.New(rand.NewSource(5)),
		})
		d.SetHazard(hazard)
		// Keep ~1.5MB in flight (384 pages, half of capacity), FIFO.
		var fifo []PageID
		var probes, misses int
		for i := PageID(0); i < 60000; i++ {
			d.Insert(i)
			fifo = append(fifo, i)
			if len(fifo) > 384 {
				q := fifo[0]
				fifo = fifo[1:]
				probes++
				if !d.Consume(q) {
					misses++
				}
			}
		}
		return float64(misses) / float64(probes)
	}
	none := run(0)
	high := run(0.8)
	if none > 0.10 {
		t.Errorf("sub-capacity occupancy without hazard should mostly hit, miss=%.3f", none)
	}
	if high < none+0.25 {
		t.Errorf("hazard should raise misses sharply: none=%.3f high=%.3f", none, high)
	}
}

func TestHazardValidation(t *testing.T) {
	d := newTestDCA(8, 8)
	for _, bad := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetHazard(%v) should panic", bad)
				}
			}()
			d.SetHazard(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetHazard > 0 without RNG should panic")
			}
		}()
		d.SetHazard(0.5)
	}()
	d.SetHazard(0) // no RNG needed for zero hazard
	if d.Hazard() != 0 {
		t.Error("Hazard should be 0")
	}
}

// Hazard evictions must never displace the page that was just inserted.
func TestHazardSparesJustInserted(t *testing.T) {
	d := newDCA(DCAConfig{
		Capacity: 64 * units.KB, // 16 pages
		PageSize: 4 * units.KB,
		Rand:     rand.New(rand.NewSource(9)),
	}, 2)
	d.SetHazard(1)
	for i := PageID(0); i < 1000; i++ {
		d.Insert(i)
		if !d.Contains(i) {
			t.Fatalf("page %d missing immediately after its own insert", i)
		}
	}
}

// When in-flight bytes exceed DCA capacity, most probes miss: the BDP >
// cache effect of §3.1.
func TestOverflowInFlightMissesHard(t *testing.T) {
	d := NewDCA(DCAConfig{Capacity: 3 * units.MB, PageSize: 4 * units.KB})
	// 6MB in flight from a fresh page stream (FIFO consume).
	window := 1536 // pages
	var fifo []PageID
	var probes, misses int
	for i := PageID(0); i < 20000; i++ {
		d.Insert(i)
		fifo = append(fifo, i)
		if len(fifo) > window {
			q := fifo[0]
			fifo = fifo[1:]
			probes++
			if !d.Consume(q) {
				misses++
			}
		}
	}
	rate := float64(misses) / float64(probes)
	if rate < 0.4 {
		t.Errorf("2x-capacity FIFO should miss >= 40%%, got %.3f", rate)
	}
}

// mapDCA is the reference oracle for DCA: the original map-indexed
// implementation, with per-set LRU slices and a page -> set residency map.
// It is deliberately naive; the differential test below pins the flat
// tag-array DCA to it draw for draw.
type mapDCA struct {
	numSets  int
	ways     int
	hazard   float64
	rng      *rand.Rand
	sets     [][]PageID
	resident map[PageID]int
	stats    DCAStats
}

func newMapDCA(numSets, ways int, hazard float64, rng *rand.Rand) *mapDCA {
	return &mapDCA{numSets: numSets, ways: ways, hazard: hazard, rng: rng,
		sets: make([][]PageID, numSets), resident: make(map[PageID]int)}
}

func (d *mapDCA) setOf(p PageID) int { return (&DCA{numSets: d.numSets}).setOf(p) }

func (d *mapDCA) Insert(p PageID) {
	s := d.setOf(p)
	set := d.sets[s]
	if _, ok := d.resident[p]; ok {
		for i, q := range set {
			if q == p {
				copy(set[i:], set[i+1:])
				set[len(set)-1] = p
				break
			}
		}
		return
	}
	d.stats.Inserts++
	if len(set) >= d.ways {
		victim := set[0]
		copy(set, set[1:])
		set = set[:len(set)-1]
		delete(d.resident, victim)
		d.stats.Evictions++
	}
	d.sets[s] = append(set, p)
	d.resident[p] = s
	if d.hazard > 0 && len(d.resident) > 1 && d.rng.Float64() < d.hazard {
		d.hazardEvict(p)
	}
}

func (d *mapDCA) hazardEvict(justInserted PageID) {
	for attempt := 0; attempt < 4; attempt++ {
		s := d.rng.Intn(d.numSets)
		set := d.sets[s]
		if len(set) == 0 {
			continue
		}
		victim := set[0]
		if victim == justInserted {
			if len(set) == 1 {
				continue
			}
			victim = set[1]
			copy(set[1:], set[2:])
			d.sets[s] = set[:len(set)-1]
		} else {
			copy(set, set[1:])
			d.sets[s] = set[:len(set)-1]
		}
		delete(d.resident, victim)
		d.stats.Evictions++
		return
	}
}

// Consume is the oracle's copy-out: a probe, then a drop.
func (d *mapDCA) Consume(p PageID) bool {
	_, ok := d.resident[p]
	if ok {
		d.stats.Hits++
	} else {
		d.stats.Misses++
	}
	d.Drop(p)
	return ok
}

func (d *mapDCA) Contains(p PageID) bool {
	_, ok := d.resident[p]
	return ok
}

func (d *mapDCA) Drop(p PageID) {
	s, ok := d.resident[p]
	if !ok {
		return
	}
	set := d.sets[s]
	for i, q := range set {
		if q == p {
			copy(set[i:], set[i+1:])
			d.sets[s] = set[:len(set)-1]
			break
		}
	}
	delete(d.resident, p)
	d.stats.Drops++
}

// TestDCAMatchesMapOracle drives the DCA and the map oracle with the same
// random Insert/Consume/Drop/Contains stream, hazard on, each with its own RNG from
// the same seed. Stats, residency of every page touched, and the next RNG
// draw must agree: the last one proves both consumed the identical number
// of hazard draws, so LRU order and eviction choice never diverged.
func TestDCAMatchesMapOracle(t *testing.T) {
	geoms := []struct{ pages, ways int }{{1, 1}, {2, 2}, {16, 4}, {64, 8}, {96, 8}, {768, 8}}
	for _, g := range geoms {
		for seed := int64(1); seed <= 5; seed++ {
			hazard := 0.1 * float64(seed)
			d := newDCA(DCAConfig{
				Capacity: units.Bytes(g.pages) * 4 * units.KB,
				PageSize: 4 * units.KB,
				Rand:     rand.New(rand.NewSource(seed)),
			}, g.ways)
			d.SetHazard(hazard)
			ref := newMapDCA(d.numSets, d.ways, hazard, rand.New(rand.NewSource(seed)))
			ops := rand.New(rand.NewSource(100 + seed))
			universe := 3 * g.pages
			for i := 0; i < 20000; i++ {
				p := PageID(ops.Intn(universe))
				switch ops.Intn(4) {
				case 0:
					d.Insert(p)
					ref.Insert(p)
				case 1:
					if got, want := d.Consume(p), ref.Consume(p); got != want {
						t.Fatalf("pages %d ways %d seed %d op %d: Consume(%d) = %v, oracle %v",
							g.pages, g.ways, seed, i, p, got, want)
					}
				case 2:
					d.Drop(p)
					ref.Drop(p)
				default:
					if got, want := d.Contains(p), ref.Contains(p); got != want {
						t.Fatalf("pages %d ways %d seed %d op %d: Contains(%d) = %v, oracle %v",
							g.pages, g.ways, seed, i, p, got, want)
					}
				}
			}
			if d.Stats() != ref.stats {
				t.Fatalf("pages %d ways %d seed %d: stats %+v, oracle %+v", g.pages, g.ways, seed, d.Stats(), ref.stats)
			}
			if d.Resident() != len(ref.resident) {
				t.Fatalf("pages %d ways %d seed %d: resident %d, oracle %d",
					g.pages, g.ways, seed, d.Resident(), len(ref.resident))
			}
			for p := PageID(0); p < PageID(universe); p++ {
				if d.Contains(p) != ref.Contains(p) {
					t.Fatalf("pages %d ways %d seed %d: Contains(%d) = %v, oracle %v",
						g.pages, g.ways, seed, p, d.Contains(p), ref.Contains(p))
				}
			}
			if got, want := d.rng.Int63(), ref.rng.Int63(); got != want {
				t.Fatalf("pages %d ways %d seed %d: RNG streams diverged (%d vs %d)", g.pages, g.ways, seed, got, want)
			}
		}
	}
}

// Steady-state Insert/Consume — the per-packet DDIO path — must not
// allocate.
func TestDCASteadyStateAllocationFree(t *testing.T) {
	d := NewDCA(DCAConfig{
		Capacity: 3 * units.MB,
		PageSize: 4 * units.KB,
		Rand:     rand.New(rand.NewSource(1)),
	})
	d.SetHazard(0.5)
	next := PageID(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			d.Insert(next)
			d.Consume(next - 32)
			next++
		}
	})
	if allocs != 0 {
		t.Errorf("Insert/Consume allocated %.1f objects per run, want 0", allocs)
	}
}

var dcaSink *DCA

// TestDCAAllocatesOnFirstInsert: building a DCA and missing on it
// allocates only the DCA itself. The first Insert allocates the tag and
// length arrays, and later Inserts nothing. A never-written DCA misses on
// every lookup and reports its full geometry.
func TestDCAAllocatesOnFirstInsert(t *testing.T) {
	cfg := DCAConfig{Capacity: 3 * units.MB, PageSize: 4 * units.KB}
	untouched := testing.AllocsPerRun(10, func() {
		d := NewDCA(cfg)
		if d.Consume(5) || d.Contains(6) {
			t.Fatal("a never-written DCA reported a hit")
		}
		d.Drop(7)
		dcaSink = d
	})
	inserted := testing.AllocsPerRun(10, func() {
		d := NewDCA(cfg)
		d.Consume(5)
		d.Insert(5)
		d.Insert(6)
		dcaSink = d
	})
	if untouched != 1 || inserted != 3 {
		t.Errorf("NewDCA plus misses allocated %v objects, plus two Inserts %v; want 1 and 3", untouched, inserted)
	}
	d := NewDCA(cfg)
	d.Consume(5)
	if st := d.Stats(); st.Misses != 1 || st.Hits != 0 || d.Resident() != 0 || d.Capacity() != 768 {
		t.Errorf("never-written DCA: stats %+v, resident %d, capacity %d", st, d.Resident(), d.Capacity())
	}
}

func TestMissRateZeroWhenUnused(t *testing.T) {
	if (DCAStats{}).MissRate() != 0 {
		t.Error("MissRate of empty stats should be 0")
	}
}

func TestResetStats(t *testing.T) {
	d := newTestDCA(8, 8)
	d.Insert(1)
	d.Insert(2)
	d.Consume(1)
	d.ResetStats()
	if d.Stats() != (DCAStats{}) {
		t.Error("ResetStats should zero counters")
	}
	if !d.Contains(2) || d.Contains(1) {
		t.Error("ResetStats must not change residency")
	}
}

func TestNewDCAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero page size should panic")
		}
	}()
	NewDCA(DCAConfig{Capacity: units.MB})
}

func TestWorkingSetMissRate(t *testing.T) {
	w := WorkingSet{Capacity: 10 * units.MB, BaseMiss: 0.02}
	if got := w.MissRate(5 * units.MB); got != 0.02 {
		t.Errorf("under-capacity miss = %v, want base 0.02", got)
	}
	if got := w.MissRate(20 * units.MB); got < 0.49 || got > 0.51 {
		t.Errorf("2x working set miss = %v, want ~0.5", got)
	}
	if got := w.MissRate(10 * units.MB); got != 0.02 {
		t.Errorf("at-capacity miss = %v, want base", got)
	}
	w0 := WorkingSet{}
	if w0.MissRate(units.MB) != 1 {
		t.Error("zero-capacity working set should always miss")
	}
}

func TestWorkingSetMonotonic(t *testing.T) {
	w := WorkingSet{Capacity: 4 * units.MB, BaseMiss: 0.01}
	f := func(a, b uint32) bool {
		x, y := units.Bytes(a), units.Bytes(b)
		if x > y {
			x, y = y, x
		}
		return w.MissRate(x) <= w.MissRate(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
