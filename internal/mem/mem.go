// Package mem models the kernel memory-management machinery the network
// stack leans on: the page allocator with its per-core pagesets (pcp
// lists) backed by a global buddy allocator, NUMA-aware page placement and
// free costs, and the IOMMU's per-page map/unmap work.
//
// The paper's §3.2 observation — memory alloc/dealloc overhead *drops*
// when the network saturates, because pages recycle through the per-core
// pageset before it empties — emerges from this model: a core whose
// in-flight page population stays under the pageset capacity serves
// allocations at pcp cost; once in-flight pages exceed it, traffic spills
// to the global allocator at several times the cost.
package mem

import (
	"fmt"

	"hostsim/internal/cache"
	"hostsim/internal/cpumodel"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// Page is one kernel page handed to the NIC or the stack, packed into one
// word: its id (globally unique, stable for cache placement) in the low 56
// bits and the NUMA node its memory lives on in the high 8. Every
// page array on the datapath (send-buffer slabs, Rx frame pages and
// stashes, pagesets) so costs 8 bytes a page. MakePage and Fresh.Page are
// its constructors; the zero Page is id 0 on node 0.
type Page struct{ w uint64 }

const idBits = 56

const (
	// maxPageID is the largest id a Page holds.
	maxPageID cache.PageID = 1<<idBits - 1
	// maxNodes bounds a Page's node, which lies in [0, maxNodes); it is
	// topology.MaxNUMANodes, to which MachineSpec.Validate holds a machine.
	maxNodes = 1 << (64 - idBits)
)

// MakePage packs id and node into a Page. It panics on an id outside
// [0, 2^56) or a node outside [0, 256).
func MakePage(id cache.PageID, node int) Page {
	if uint64(id) > uint64(maxPageID) || uint(node) >= maxNodes {
		panic(badPage{id, node})
	}
	return Page{uint64(id) | uint64(node)<<idBits}
}

// badPage is MakePage's panic value: a value, not a formatted string, so
// that MakePage stays small enough to inline.
type badPage struct {
	id   cache.PageID
	node int
}

func (b badPage) Error() string {
	return fmt.Sprintf("mem: page id %d on node %d out of range", b.id, b.node)
}

// ID returns the page's id.
func (p Page) ID() cache.PageID { return cache.PageID(p.w & uint64(maxPageID)) }

// Node returns the NUMA node the page's memory lives on.
func (p Page) Node() int { return int(p.w >> idBits) }

// DefaultPagesetCap is the per-core pageset capacity in pages. Linux pcp
// lists hold a few hundred pages per order-0 zone list.
const DefaultPagesetCap = 512

// Allocator is the per-host page allocator. Not safe for concurrent use;
// the simulator is single-threaded.
type Allocator struct {
	spec   topology.MachineSpec
	costs  *cpumodel.Costs
	iommu  bool
	nextID cache.PageID
	// freelists[core] is a LIFO of free pages, all on that core's node:
	// LIFO keeps recently freed (cache-hot, placement-stable) pages
	// recycling first, like the kernel's pcp hot list.
	freelists  [][]Page
	pagesetCap int
	inUse      int64
}

// NewAllocator builds an allocator for spec. costs must be non-nil.
func NewAllocator(spec topology.MachineSpec, costs *cpumodel.Costs) *Allocator {
	if costs == nil {
		panic("mem: nil cost table")
	}
	return &Allocator{
		spec:       spec,
		costs:      costs,
		freelists:  make([][]Page, spec.NumCores()),
		pagesetCap: DefaultPagesetCap,
	}
}

// SetIOMMU enables or disables IOMMU accounting (per-page map/unmap costs
// in the DMA path).
func (a *Allocator) SetIOMMU(on bool) { a.iommu = on }

// SetPagesetCap overrides the per-core pageset capacity (for tests and
// ablations).
func (a *Allocator) SetPagesetCap(n int) {
	if n < 0 {
		panic("mem: negative pageset capacity")
	}
	a.pagesetCap = n
}

// AppendAlloc appends n pages for code running on core to dst, charging
// ch. Pages come from the core's pageset when available (cheap) and the
// global allocator otherwise (expensive); they are placed on the core's
// NUMA node. Hot paths hand in a dst with room for the n pages, so the
// call allocates nothing: the send path a slab from its connection
// (tcp.Conn.PageSlab), the NIC its Rx page stash. A dst too short for n
// more pages is reallocated once, to room for all of them (at least
// doubling, as append would), instead of through append's doubling chain;
// the stash grows that way.
func (a *Allocator) AppendAlloc(ch cpumodel.Charger, core, n int, dst []Page) []Page {
	checkCount(n)
	if cap(dst)-len(dst) < n {
		dst = append(make([]Page, 0, max(len(dst)+n, 2*cap(dst))), dst...)
	}
	dst, fresh := a.reserve(ch, core, n, dst)
	for i := 0; i < fresh.N; i++ {
		dst = append(dst, fresh.Page(i))
	}
	return dst
}

// Fresh is a run of pages the global allocator has just handed out: ids
// First, First+1, ..., First+N-1, all on node Node.
type Fresh struct {
	First cache.PageID
	N     int
	Node  int
}

// Page returns the i-th page of the run.
func (f Fresh) Page(i int) Page { return MakePage(f.First+cache.PageID(i), f.Node) }

// Reserve is AppendAlloc with no CPU charge whose global-allocator pages stay a
// range: pageset pages are appended to dst in AppendAlloc's order, and the fresh
// pages that would follow them come back as a Fresh run instead of a
// slice. Ids and InUse advance exactly as AppendAlloc's do. It is for
// bulk set-up, such as a driver filling a whole Rx ring at ifup, whose
// pages are mostly never touched.
func (a *Allocator) Reserve(core, n int, dst []Page) ([]Page, Fresh) {
	checkCount(n)
	return a.reserve(cpumodel.Discard{}, core, n, dst)
}

func checkCount(n int) {
	if n < 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", n))
	}
}

// reserve serves n >= 0 pages for core: pageset pages appended to dst,
// the rest as a fresh run, each page charged to ch.
func (a *Allocator) reserve(ch cpumodel.Charger, core, n int, dst []Page) ([]Page, Fresh) {
	node := a.spec.NodeOf(core)
	fl := a.freelists[core]
	k := min(n, len(fl))
	for i := 1; i <= k; i++ {
		dst = append(dst, fl[len(fl)-i])
	}
	a.freelists[core] = fl[:len(fl)-k]
	fresh := Fresh{First: a.nextID + 1, N: n - k, Node: node}
	if cache.PageID(fresh.N) > maxPageID-a.nextID {
		panic(fmt.Sprintf("mem: page ids exhausted: %d more after id %d, past maxPageID", fresh.N, a.nextID))
	}
	// Charges are additive, so one per kind equals one per page.
	if k > 0 {
		ch.Charge(cpumodel.Memory, a.costs.PageAllocPCP*units.Cycles(k))
	}
	if fresh.N > 0 {
		ch.Charge(cpumodel.Memory, a.costs.PageAllocGlobal*units.Cycles(fresh.N))
	}
	a.nextID += cache.PageID(fresh.N)
	a.inUse += int64(n)
	return dst, fresh
}

// Free returns pages from code running on core. Local pages go back to the
// core's pageset while it has room, then to the global allocator; pages
// on a remote node always go global and pay the remote-free premium (the
// paper's aRFS locality observation).
func (a *Allocator) Free(ch cpumodel.Charger, core int, pages []Page) {
	node := a.spec.NodeOf(core)
	fl := a.freelists[core]
	for _, p := range pages {
		if p.Node() == node {
			if len(fl) < a.pagesetCap {
				fl = append(fl, p)
				ch.Charge(cpumodel.Memory, a.costs.PageFreePCP)
			} else {
				ch.Charge(cpumodel.Memory, a.costs.PageFreeGlobal)
			}
		} else {
			ch.Charge(cpumodel.Memory, a.costs.PageFreeGlobal+a.costs.PageFreeRemote)
		}
	}
	a.freelists[core] = fl
	a.inUse -= int64(len(pages))
	if a.inUse < 0 {
		panic("mem: more pages freed than allocated")
	}
}

// DMAMap charges the IOMMU mapping cost for n pages if the IOMMU is
// enabled (the driver inserts the pages into the device's IOMMU domain).
func (a *Allocator) DMAMap(ch cpumodel.Charger, n int) {
	if !a.iommu || n <= 0 {
		return
	}
	ch.Charge(cpumodel.Memory, a.costs.IOMMUMap*units.Cycles(n))
}

// DMAUnmap charges the IOMMU unmap cost for n pages if enabled.
func (a *Allocator) DMAUnmap(ch cpumodel.Charger, n int) {
	if !a.iommu || n <= 0 {
		return
	}
	ch.Charge(cpumodel.Memory, a.costs.IOMMUUnmap*units.Cycles(n))
}

// InUse returns the number of pages currently allocated.
func (a *Allocator) InUse() int64 { return a.inUse }

// PagesetLen returns the number of pages in core's pageset (tests).
func (a *Allocator) PagesetLen(core int) int { return len(a.freelists[core]) }

// PagesFor proxies the spec's page math.
func (a *Allocator) PagesFor(b units.Bytes) int { return a.spec.PagesFor(b) }
