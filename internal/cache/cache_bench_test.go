package cache

import (
	"math/rand"
	"testing"

	"hostsim/internal/units"
)

// BenchmarkDCAInsertConsume measures the per-page cache model cost in
// its steady-state cycle (every received byte goes through it).
func BenchmarkDCAInsertConsume(b *testing.B) {
	d := NewDCA(DCAConfig{
		Capacity: 3 * units.MB,
		PageSize: 4 * units.KB,
		Rand:     rand.New(rand.NewSource(1)),
	})
	d.SetHazard(0.1)
	var fifo []PageID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := PageID(i)
		d.Insert(p)
		fifo = append(fifo, p)
		if len(fifo) > 700 {
			q := fifo[0]
			fifo = fifo[1:]
			d.Consume(q)
		}
	}
}

// BenchmarkWorkingSetMissRate measures the sender-side estimator.
func BenchmarkWorkingSetMissRate(b *testing.B) {
	w := WorkingSet{Capacity: 20 * units.MB, BaseMiss: 0.04}
	for i := 0; i < b.N; i++ {
		w.MissRate(units.Bytes(i % (64 << 20)))
	}
}
