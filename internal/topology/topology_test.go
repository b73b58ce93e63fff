package topology

import (
	"testing"

	"hostsim/internal/units"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesPaperTestbed(t *testing.T) {
	m := Default()
	if m.NumCores() != 24 {
		t.Errorf("NumCores = %d, want 24", m.NumCores())
	}
	if m.NUMANodes != 4 || m.CoresPerNode != 6 {
		t.Errorf("geometry %dx%d, want 4x6", m.NUMANodes, m.CoresPerNode)
	}
	if m.Frequency != units.Frequency(3.4e9) {
		t.Errorf("Frequency = %d, want 3.4GHz", m.Frequency)
	}
	// DCA capacity ~3MB (paper: "DCA can only use 18% (~3 MB) of the L3").
	dca := m.DCACapacity()
	if dca < units.Bytes(3.5e6) || dca > units.Bytes(3.9e6) {
		t.Errorf("DCACapacity = %v, want ~3.6MB (18%% of 20MB)", dca)
	}
	if m.LinkRate != 100*units.Gbps {
		t.Errorf("LinkRate = %v, want 100Gbps", m.LinkRate)
	}
}

func TestNodeOf(t *testing.T) {
	m := Default()
	cases := []struct{ core, node int }{
		{0, 0}, {5, 0}, {6, 1}, {11, 1}, {12, 2}, {23, 3},
	}
	for _, c := range cases {
		if got := m.NodeOf(c.core); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.core, got, c.node)
		}
	}
}

func TestNodeOfPanicsOutOfRange(t *testing.T) {
	m := Default()
	for _, core := range []int{-1, 24} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeOf(%d) should panic", core)
				}
			}()
			m.NodeOf(core)
		}()
	}
}

func TestCoresOnNode(t *testing.T) {
	m := Default()
	got := m.CoresOnNode(1)
	want := []int{6, 7, 8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("CoresOnNode(1) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CoresOnNode(1)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPagesFor(t *testing.T) {
	m := Default()
	cases := []struct {
		b    units.Bytes
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {4096, 1}, {4097, 2}, {9000, 3}, {65536, 16},
	}
	for _, c := range cases {
		if got := m.PagesFor(c.b); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	mut := []func(*MachineSpec){
		func(m *MachineSpec) { m.NUMANodes = 0 },
		func(m *MachineSpec) { m.CoresPerNode = -1 },
		func(m *MachineSpec) { m.Frequency = 0 },
		func(m *MachineSpec) { m.L3PerNode = 0 },
		func(m *MachineSpec) { m.DCAFraction = 0 },
		func(m *MachineSpec) { m.DCAFraction = 1.5 },
		func(m *MachineSpec) { m.PageSize = 0 },
		func(m *MachineSpec) { m.NICNode = 4 },
		func(m *MachineSpec) { m.NICNode = -1 },
		func(m *MachineSpec) { m.LinkRate = 0 },
		func(m *MachineSpec) { m.OneWayDelay = -1 },
	}
	for i, f := range mut {
		m := Default()
		f(&m)
		if m.Validate() == nil {
			t.Errorf("mutation %d should invalidate spec", i)
		}
	}
}

// TestDefaultL3PerNode pins the testbed's L3 capacity: exactly 20MB per
// socket (the Xeon Gold 6234's 24.75MB rounded to the paper's working
// figure). Guards against the expression regressing into a silent
// scaling no-op again.
func TestDefaultL3PerNode(t *testing.T) {
	if got, want := Default().L3PerNode, 20*units.MB; got != want {
		t.Errorf("Default().L3PerNode = %v, want %v", got, want)
	}
}
