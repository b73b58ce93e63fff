// Package topology describes the simulated machine: sockets, cores, NUMA
// nodes, cache geometry, and the access link. The default spec mirrors the
// paper's testbed — two 4-socket Intel Xeon Gold 6128 servers (6 cores per
// socket at 3.4GHz, 20MB L3 per socket), a 100Gbps NIC attached to NUMA
// node 0, and DDIO able to use ~18% of the NIC-local L3 (~3MB).
package topology

import (
	"fmt"

	"hostsim/internal/units"
)

// MachineSpec describes one host.
type MachineSpec struct {
	NUMANodes    int             // number of NUMA nodes (sockets)
	CoresPerNode int             // cores per node
	Frequency    units.Frequency // core clock
	L3PerNode    units.Bytes     // L3 capacity per node
	DCAFraction  float64         // fraction of NIC-local L3 usable by DDIO
	PageSize     units.Bytes     // kernel page size
	NICNode      int             // NUMA node the NIC is attached to
	LinkRate     units.BitRate   // access link bandwidth
	OneWayDelay  int64           // wire propagation one-way, nanoseconds
}

// MaxNUMANodes bounds MachineSpec.NUMANodes: a mem.Page packs its node
// into 8 bits.
const MaxNUMANodes = 256

// Default returns the paper's testbed host.
func Default() MachineSpec {
	return MachineSpec{
		NUMANodes:    4,
		CoresPerNode: 6,
		Frequency:    units.Frequency(3.4e9),
		// 20MB per socket. (A historical `/ 4 * 4` here was a left-right
		// no-op — 20MB is already 4KB-page aligned — and is gone; the
		// value is pinned by TestDefaultL3PerNode.)
		L3PerNode:   20 * units.MB,
		DCAFraction: 0.18,
		PageSize:    4 * units.KB,
		NICNode:     0,
		LinkRate:    100 * units.Gbps,
		OneWayDelay: 2000, // 2us: direct-attached 100G link
	}
}

// Validate reports whether the spec is internally consistent.
func (m MachineSpec) Validate() error {
	switch {
	case m.NUMANodes <= 0 || m.NUMANodes > MaxNUMANodes:
		return fmt.Errorf("topology: NUMANodes = %d, want 1..%d", m.NUMANodes, MaxNUMANodes)
	case m.CoresPerNode <= 0:
		return fmt.Errorf("topology: CoresPerNode = %d, want > 0", m.CoresPerNode)
	case m.Frequency <= 0:
		return fmt.Errorf("topology: Frequency = %d, want > 0", m.Frequency)
	case m.L3PerNode <= 0:
		return fmt.Errorf("topology: L3PerNode = %d, want > 0", m.L3PerNode)
	case m.DCAFraction <= 0 || m.DCAFraction > 1:
		return fmt.Errorf("topology: DCAFraction = %v, want (0,1]", m.DCAFraction)
	case m.PageSize <= 0:
		return fmt.Errorf("topology: PageSize = %d, want > 0", m.PageSize)
	case m.NICNode < 0 || m.NICNode >= m.NUMANodes:
		return fmt.Errorf("topology: NICNode = %d, want 0..%d", m.NICNode, m.NUMANodes-1)
	case m.LinkRate <= 0:
		return fmt.Errorf("topology: LinkRate = %d, want > 0", m.LinkRate)
	case m.OneWayDelay < 0:
		return fmt.Errorf("topology: OneWayDelay = %d, want >= 0", m.OneWayDelay)
	}
	return nil
}

// NumCores returns the total core count.
func (m MachineSpec) NumCores() int { return m.NUMANodes * m.CoresPerNode }

// NodeOf returns the NUMA node of a core id. Cores are numbered
// node-major: cores [0, CoresPerNode) are node 0, and so on, matching how
// the paper pins applications.
func (m MachineSpec) NodeOf(core int) int {
	if core < 0 || core >= m.NumCores() {
		panic(fmt.Sprintf("topology: core %d out of range [0,%d)", core, m.NumCores()))
	}
	return core / m.CoresPerNode
}

// CoresOnNode returns the core ids belonging to a node.
func (m MachineSpec) CoresOnNode(node int) []int {
	if node < 0 || node >= m.NUMANodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, m.NUMANodes))
	}
	out := make([]int, m.CoresPerNode)
	for i := range out {
		out[i] = node*m.CoresPerNode + i
	}
	return out
}

// DCACapacity returns the DDIO-usable bytes of the NIC-local L3.
func (m MachineSpec) DCACapacity() units.Bytes {
	return units.Bytes(float64(m.L3PerNode) * m.DCAFraction)
}

// PagesFor returns how many pages back a buffer of b bytes.
func (m MachineSpec) PagesFor(b units.Bytes) int {
	if b <= 0 {
		return 0
	}
	return int((b + m.PageSize - 1) / m.PageSize)
}
