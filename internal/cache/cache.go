// Package cache models the parts of the CPU cache hierarchy that the paper
// shows to matter for network processing: the DDIO/DCA slice of the
// NIC-local L3 that the NIC DMAs into, and a coarse working-set model for
// the sender-side cache.
//
// The DCA model is a set-associative, page-granularity cache with an
// insertion-eviction hazard. Two phenomena from §3.1 of the paper are
// covered:
//
//  1. When in-flight (DMAed but not yet copied) data exceeds the DCA
//     capacity, pages are evicted before the application copies them —
//     the BDP-vs-cache-size effect. This falls out of plain capacity
//     eviction.
//  2. With a large number of NIC Rx descriptors, "the likelihood of a DCA
//     write evicting some previously written data increases", even when
//     occupancy is below capacity (the paper attributes this to DDIO's
//     limited way allocation and complex cache addressing). We model this
//     directly: each insert additionally evicts the LRU entry of a
//     uniformly random set with a configurable hazard probability, which
//     the NIC derives from its ring geometry (see nic.DCAHazard).
package cache

import (
	"fmt"
	"math/rand"

	"hostsim/internal/units"
)

// PageID identifies a physical page for cache purposes. IDs are assigned
// by the memory allocator and persist across page recycling.
type PageID int64

// DCAConfig configures the DDIO cache model.
type DCAConfig struct {
	Capacity units.Bytes // DDIO-usable bytes of the NIC-local L3
	PageSize units.Bytes
	Rand     *rand.Rand // source for hazard evictions; required if Hazard > 0
}

// DCAStats counts cache events, in pages.
type DCAStats struct {
	Inserts   int64 // pages DMAed into the cache
	Evictions int64 // pages pushed out before being consumed
	Hits      int64 // probed pages found resident
	Misses    int64 // probed pages not resident
	Drops     int64 // pages invalidated after consumption
}

// MissRate returns misses/(hits+misses), or 0 if nothing was probed.
func (s DCAStats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// DCA is the DDIO cache. The zero value is not usable; construct with
// NewDCA.
//
// The cache is one flat tag array: set s owns tags[s*ways:(s+1)*ways], of
// which the first lens[s] entries are its resident pages, LRU first. A
// page's set is a pure function of its id, so every lookup recomputes it
// and scans at most ways tags: no per-page index, no allocation. The
// first Insert allocates tags and lens; until then every lookup misses,
// so a host whose NIC never DMAs a page into DDIO pays nothing. They stay
// two allocations: one of both rounds up to a larger size class, 256 B
// more per DCA at the default geometry.
type DCA struct {
	numSets  int
	ways     int
	pageSize units.Bytes
	hazard   float64
	rng      *rand.Rand
	tags     []PageID
	lens     []int
	resident int // pages resident across all sets
	stats    DCAStats
}

// dcaWays is the DCA's set associativity.
const dcaWays = 8

// NewDCA builds a dcaWays-way DCA cache; capacity is rounded down to
// whole pages.
func NewDCA(cfg DCAConfig) *DCA { return newDCA(cfg, dcaWays) }

// newDCA is NewDCA with the given set associativity.
func newDCA(cfg DCAConfig, ways int) *DCA {
	if cfg.PageSize <= 0 {
		panic("cache: non-positive page size")
	}
	if ways < 1 {
		panic("cache: non-positive ways")
	}
	slots := int(cfg.Capacity / cfg.PageSize)
	if slots < ways {
		slots = ways
	}
	numSets := slots / ways
	if numSets < 1 {
		numSets = 1
	}
	return &DCA{numSets: numSets, ways: ways, pageSize: cfg.PageSize, rng: cfg.Rand}
}

// SetHazard sets the per-insert probability of a hazard eviction (a DCA
// write displacing unconsumed data in an unrelated set). The NIC computes
// this from descriptor-ring geometry. Panics if p is outside [0,1] or if
// p > 0 and no random source was configured.
func (d *DCA) SetHazard(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("cache: hazard %v outside [0,1]", p))
	}
	if p > 0 && d.rng == nil {
		panic("cache: hazard requires a random source")
	}
	d.hazard = p
}

// Hazard returns the configured hazard probability.
func (d *DCA) Hazard() float64 { return d.hazard }

// setOf returns a page's persistent set assignment (splitmix64 of the id).
func (d *DCA) setOf(p PageID) int {
	z := uint64(p) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(d.numSets))
}

// set returns set s's resident pages, LRU first. Its capacity ends at the
// set's last way, so appending stays inside the set's slice of tags.
func (d *DCA) set(s int) []PageID {
	base := s * d.ways
	return d.tags[base : base+d.lens[s] : base+d.ways]
}

// find returns p's set and p's position in it, or -1 if p is not resident.
func (d *DCA) find(p PageID) (s, i int) {
	s = d.setOf(p)
	if d.tags == nil {
		return s, -1
	}
	for i, q := range d.set(s) {
		if q == p {
			return s, i
		}
	}
	return s, -1
}

// remove deletes the entry at position i of set s, keeping LRU order.
func (d *DCA) remove(s, i int) {
	set := d.set(s)
	copy(set[i:], set[i+1:])
	d.lens[s]--
	d.resident--
}

// Insert records a DMA write of page p into the cache. If p's set is full
// the least recently inserted page in that set is evicted. Re-inserting a
// resident page refreshes its LRU position.
func (d *DCA) Insert(p PageID) {
	if d.tags == nil {
		d.tags, d.lens = make([]PageID, d.numSets*d.ways), make([]int, d.numSets)
	}
	s, i := d.find(p)
	if i >= 0 {
		// Refresh: move to MRU position.
		set := d.set(s)
		copy(set[i:], set[i+1:])
		set[len(set)-1] = p
		return
	}
	d.stats.Inserts++
	if d.lens[s] >= d.ways {
		d.remove(s, 0)
		d.stats.Evictions++
	}
	d.tags[s*d.ways+d.lens[s]] = p
	d.lens[s]++
	d.resident++
	if d.hazard > 0 && d.resident > 1 && d.rng.Float64() < d.hazard {
		d.hazardEvict(p)
	}
}

// hazardEvict drops the LRU entry of a uniformly random non-empty set,
// sparing the just-inserted page. It models a DCA write displacing
// unconsumed data due to DDIO's restricted ways / complex addressing.
func (d *DCA) hazardEvict(justInserted PageID) {
	// Try a few random sets; with a mostly-empty cache we may find none,
	// which is the correct behaviour (nothing to displace).
	for attempt := 0; attempt < 4; attempt++ {
		s := d.rng.Intn(d.numSets)
		set := d.set(s)
		// An insert lands at the MRU end, so the just-inserted page is a
		// set's LRU entry only when it is alone there.
		if len(set) == 0 || set[0] == justInserted {
			continue
		}
		d.remove(s, 0)
		d.stats.Evictions++
		return
	}
}

// Consume is the copy-out of page p: it reports whether p was resident,
// counting a hit or a miss, and invalidates p if it was, counting a drop.
// It finds p in its set once.
func (d *DCA) Consume(p PageID) bool {
	s, i := d.find(p)
	if i < 0 {
		d.stats.Misses++
		return false
	}
	d.stats.Hits++
	d.remove(s, i)
	d.stats.Drops++
	return true
}

// Contains reports residency without touching the stats.
func (d *DCA) Contains(p PageID) bool {
	_, i := d.find(p)
	return i >= 0
}

// Drop invalidates page p (called when the copied-out page is freed),
// releasing its slot. Dropping a non-resident page is a no-op.
func (d *DCA) Drop(p PageID) {
	s, i := d.find(p)
	if i < 0 {
		return
	}
	d.remove(s, i)
	d.stats.Drops++
}

// Resident returns the number of resident pages.
func (d *DCA) Resident() int { return d.resident }

// Capacity returns the total page slots.
func (d *DCA) Capacity() int { return d.numSets * d.ways }

// Stats returns a copy of the counters.
func (d *DCA) Stats() DCAStats { return d.stats }

// ResetStats zeroes the counters (used when a measurement window starts
// after warm-up).
func (d *DCA) ResetStats() { d.stats = DCAStats{} }

func (d *DCA) String() string {
	return fmt.Sprintf("DCA(%d sets x %d ways, %d resident)", d.numSets, d.ways, d.resident)
}

// WorkingSet is a coarse miss-rate estimator for a cache accessed with a
// working set of a given size: below capacity accesses mostly hit; beyond
// capacity the hit probability decays as capacity/workingSet. Used for the
// sender-side L3 (application send buffers are re-read on retransmit and
// re-written round-robin, so the classic working-set approximation holds).
type WorkingSet struct {
	Capacity units.Bytes
	// BaseMiss is the compulsory miss floor applied even when the working
	// set fits (cold lines, prefetch imperfection).
	BaseMiss float64
}

// MissRate estimates the miss probability for working set ws.
func (w WorkingSet) MissRate(ws units.Bytes) float64 {
	if w.Capacity <= 0 {
		return 1
	}
	base := w.BaseMiss
	if base < 0 {
		base = 0
	}
	if ws <= w.Capacity {
		return base
	}
	m := 1 - float64(w.Capacity)/float64(ws)
	if m < base {
		m = base
	}
	if m > 1 {
		m = 1
	}
	return m
}
