package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hostsim/internal/cpumodel"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// tally is a Charger that records per-category totals.
type tally struct {
	got cpumodel.Breakdown
}

func (t *tally) Charge(cat cpumodel.Category, c units.Cycles) { t.got.Add(cat, c) }

func newAlloc() *Allocator {
	return NewAllocator(topology.Default(), cpumodel.Default())
}

func TestAllocPlacesOnLocalNode(t *testing.T) {
	a := newAlloc()
	var ch tally
	pages := a.AppendAlloc(&ch, 7, 3, nil) // core 7 is node 1
	if len(pages) != 3 {
		t.Fatalf("got %d pages, want 3", len(pages))
	}
	for _, p := range pages {
		if p.Node != 1 {
			t.Errorf("page on node %d, want 1", p.Node)
		}
		if p.ID == 0 {
			t.Error("page ID must be non-zero")
		}
	}
	if a.InUse() != 3 {
		t.Errorf("InUse = %d, want 3", a.InUse())
	}
}

func TestUniquePageIDs(t *testing.T) {
	a := newAlloc()
	seen := map[int64]bool{}
	for core := 0; core < 4; core++ {
		for _, p := range a.AppendAlloc(cpumodel.Discard{}, core, 50, nil) {
			if seen[int64(p.ID)] {
				t.Fatalf("duplicate page ID %d", p.ID)
			}
			seen[int64(p.ID)] = true
		}
	}
}

func TestPagesetRecycling(t *testing.T) {
	a := newAlloc()
	costs := cpumodel.Default()
	var ch tally
	pages := a.AppendAlloc(&ch, 0, 10, nil)
	if got := ch.got[cpumodel.Memory]; got != 10*costs.PageAllocGlobal {
		t.Fatalf("first allocation should be global: charged %d, want %d", got, 10*costs.PageAllocGlobal)
	}
	a.Free(&ch, 0, pages)
	if a.PagesetLen(0) != 10 {
		t.Fatalf("local frees should land in the pageset, holding %d", a.PagesetLen(0))
	}
	ch = tally{}
	again := a.AppendAlloc(&ch, 0, 10, nil)
	if got := ch.got[cpumodel.Memory]; got != 10*costs.PageAllocPCP || a.PagesetLen(0) != 0 {
		t.Fatalf("recycled allocation should be served by pageset: charged %d, want %d", got, 10*costs.PageAllocPCP)
	}
	// LIFO: most recently freed page comes back first.
	if again[0].ID != pages[9].ID {
		t.Errorf("pageset should be LIFO: got %d, want %d", again[0].ID, pages[9].ID)
	}
}

func TestPagesetCapacitySpillsToGlobal(t *testing.T) {
	a := newAlloc()
	a.SetPagesetCap(4)
	var ch tally
	pages := a.AppendAlloc(&ch, 0, 10, nil)
	ch = tally{}
	a.Free(&ch, 0, pages)
	costs := cpumodel.Default()
	if a.PagesetLen(0) != 4 || ch.got[cpumodel.Memory] != 4*costs.PageFreePCP+6*costs.PageFreeGlobal {
		t.Errorf("want 4 pcp frees + 6 global, got pageset %d charged %d", a.PagesetLen(0), ch.got[cpumodel.Memory])
	}
}

func TestRemoteFreeCostsMore(t *testing.T) {
	a := newAlloc()
	costs := cpumodel.Default()
	var local, remote tally
	p := a.AppendAlloc(&local, 0, 1, nil) // node 0
	a.SetPagesetCap(0)                    // force global frees so costs are comparable
	local = tally{}
	a.Free(&local, 0, p) // free on same node
	q := a.AppendAlloc(&remote, 0, 1, nil)
	remote = tally{}
	a.Free(&remote, 6, q) // core 6 = node 1: remote free
	wantExtra := costs.PageFreeRemote
	if remote.got[cpumodel.Memory]-local.got[cpumodel.Memory] != wantExtra {
		t.Errorf("remote free extra = %d, want %d",
			remote.got[cpumodel.Memory]-local.got[cpumodel.Memory], wantExtra)
	}
}

func TestRemoteFreeNeverEntersLocalPageset(t *testing.T) {
	a := newAlloc()
	p := a.AppendAlloc(cpumodel.Discard{}, 0, 5, nil) // node-0 pages
	a.Free(cpumodel.Discard{}, 6, p)                  // freed from node-1 core
	if a.PagesetLen(6) != 0 {
		t.Error("remote pages must not enter the freeing core's pageset")
	}
	// And a subsequent node-1 alloc gets node-1 pages.
	q := a.AppendAlloc(cpumodel.Discard{}, 6, 1, nil)
	if q[0].Node != 1 {
		t.Errorf("node = %d, want 1", q[0].Node)
	}
}

func TestChargesGoToMemoryCategory(t *testing.T) {
	a := newAlloc()
	var ch tally
	p := a.AppendAlloc(&ch, 0, 2, nil)
	a.Free(&ch, 0, p)
	if ch.got[cpumodel.Memory] == 0 {
		t.Error("allocation should charge the Memory category")
	}
	for cat := range ch.got {
		if cpumodel.Category(cat) != cpumodel.Memory && ch.got[cat] != 0 {
			t.Errorf("unexpected charge in %v", cpumodel.Category(cat))
		}
	}
}

func TestIOMMUAccounting(t *testing.T) {
	a := newAlloc()
	costs := cpumodel.Default()
	var ch tally
	a.DMAMap(&ch, 4)
	a.DMAUnmap(&ch, 4)
	if ch.got[cpumodel.Memory] != 0 {
		t.Error("IOMMU disabled: map/unmap must be free")
	}
	a.SetIOMMU(true)
	a.DMAMap(&ch, 4)
	a.DMAUnmap(&ch, 4)
	want := costs.IOMMUMap*4 + costs.IOMMUUnmap*4
	if ch.got[cpumodel.Memory] != want {
		t.Errorf("IOMMU charges = %d, want %d", ch.got[cpumodel.Memory], want)
	}
}

func TestOverFreePanics(t *testing.T) {
	a := newAlloc()
	p := a.AppendAlloc(cpumodel.Discard{}, 0, 1, nil)
	a.Free(cpumodel.Discard{}, 0, p)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	a.Free(cpumodel.Discard{}, 0, p)
}

func TestNegativeAllocPanics(t *testing.T) {
	a := newAlloc()
	defer func() {
		if recover() == nil {
			t.Error("Alloc(-1) should panic")
		}
	}()
	a.AppendAlloc(cpumodel.Discard{}, 0, -1, nil)
}

// Property: any sequence of alloc/free keeps InUse = allocated - freed,
// and pageset length never exceeds its capacity.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		a := newAlloc()
		a.SetPagesetCap(16)
		var held []Page
		var allocated, freed int64
		for _, op := range ops {
			core := int(op) % 24
			if op%2 == 0 || len(held) == 0 {
				n := int(op%5) + 1
				held = append(held, a.AppendAlloc(cpumodel.Discard{}, core, n, nil)...)
				allocated += int64(n)
			} else {
				n := int(op%uint8(len(held))) + 1
				if n > len(held) {
					n = len(held)
				}
				a.Free(cpumodel.Discard{}, core, held[:n])
				held = held[n:]
				freed += int64(n)
			}
			for c := 0; c < 24; c++ {
				if a.PagesetLen(c) > 16 {
					return false
				}
			}
		}
		return a.InUse() == allocated-freed
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPagesFor(t *testing.T) {
	a := newAlloc()
	if a.PagesFor(9000) != 3 {
		t.Errorf("PagesFor(9000) = %d, want 3", a.PagesFor(9000))
	}
}

// TestReserveMatchesAlloc checks that Reserve is AppendAlloc with the fresh
// pages left as a range: expanding the run after the pageset pages gives
// AppendAlloc's ids in its order (pageset pages last-freed first), and the
// allocator's ids, InUse and pageset advance identically, for n below,
// equal to and above the pageset length.
func TestReserveMatchesAlloc(t *testing.T) {
	const pageset = 8
	for _, n := range []int{0, 3, pageset, pageset + 5} {
		var twins [2]*Allocator
		var freed []Page
		for i := range twins {
			a := newAlloc()
			freed = a.AppendAlloc(cpumodel.Discard{}, 2, pageset, nil)
			a.Free(cpumodel.Discard{}, 2, freed)
			a.AppendAlloc(cpumodel.Discard{}, 9, 4, nil) // another core's ids in between
			twins[i] = a
		}
		want := twins[0].AppendAlloc(cpumodel.Discard{}, 2, n, nil)
		for i := 0; i < min(n, pageset); i++ {
			if want[i] != freed[pageset-1-i] {
				t.Fatalf("n=%d: Alloc page %d = %+v, want the pageset's LIFO %+v", n, i, want[i], freed[pageset-1-i])
			}
		}
		prefix := []Page{{ID: 999, Node: 0}}
		got, fresh := twins[1].Reserve(2, n, prefix)
		if got[0] != prefix[0] {
			t.Fatalf("n=%d: Reserve overwrote dst", n)
		}
		got = got[1:]
		if wantPCP := min(n, pageset); len(got) != wantPCP || fresh.N != n-wantPCP {
			t.Fatalf("n=%d: %d pageset pages + %d fresh, want %d + %d",
				n, len(got), fresh.N, wantPCP, n-wantPCP)
		}
		for i := 0; i < fresh.N; i++ {
			got = append(got, fresh.Page(i))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: page %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
		if twins[0].InUse() != twins[1].InUse() || twins[0].PagesetLen(2) != twins[1].PagesetLen(2) {
			t.Errorf("n=%d: allocator state diverged: %d/%d vs %d/%d", n,
				twins[0].InUse(), twins[0].PagesetLen(2), twins[1].InUse(), twins[1].PagesetLen(2))
		}
		// The next allocation continues the same id sequence.
		if a, b := twins[0].AppendAlloc(cpumodel.Discard{}, 5, 1, nil)[0], twins[1].AppendAlloc(cpumodel.Discard{}, 5, 1, nil)[0]; a != b {
			t.Errorf("n=%d: next page %+v, want %+v", n, b, a)
		}
	}
}

// TestAppendAllocGrowsOnce checks that AppendAlloc sizes a short dst in
// one allocation rather than through append's doubling chain.
func TestAppendAllocGrowsOnce(t *testing.T) {
	a := newAlloc()
	allocs := testing.AllocsPerRun(10, func() {
		pages := a.AppendAlloc(cpumodel.Discard{}, 0, 20, nil)
		a.Free(cpumodel.Discard{}, 0, pages)
	})
	if allocs > 1 {
		t.Errorf("AppendAlloc of 20 pages into nil made %.0f allocations, want 1", allocs)
	}
}
