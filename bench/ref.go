package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// refMS is the reference kernel's time on the reference machine. op_ms and
// setup_s are given for that machine: each op's wall time is divided by
// the kernel's time measured right after it and multiplied by refMS.
//
// Other tenants of a shared host slow the machine for seconds to minutes
// at a time, so a raw wall time moves by a third between identical runs.
// The kernel, timed next to each op, slows with it; the ratio of the two
// moves far less, while a change to the simulator moves only the op. The
// kernel is in this package and runs no hostsim code.
const refMS = 12.0

const (
	refKeys  = 1 << 17
	refBytes = 8 * (2*2*refKeys + refKeys) // a table of 2·refKeys key-value slots, and the keys to sort
)

// refKernel is a fixed task that uses no hostsim code: 2^17 random keys
// inserted into an open-addressing hash table, then sorted. Its memory is
// mapped outside the Go heap, so it adds nothing to the collector's work
// or heap goal, and the simulator's garbage collection is the same with
// or without it. The mapping stays resident: refBytes of every worker's
// peak RSS, which peakRSSKB subtracts.
type refKernel struct {
	table []uint64 // key, value pairs; key 0 marks a free slot
	xs    []uint64
}

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refBytes/8)
	r := &refKernel{table: words[:4*refKeys], xs: words[4*refKeys:]}
	r.run() // touches every page
	return r, nil
}

// run times the kernel once, in ns.
func (r *refKernel) run() int64 {
	start := time.Now()
	clear(r.table)
	const shift = 64 - 18 // 2^18 slots
	mask := uint64(len(r.table)/2 - 1)
	x := uint64(88172645463325252) // xorshift64: never 0, no repeats here
	for i := range r.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x >> shift
		for r.table[2*j] != 0 {
			j = (j + 1) & mask
		}
		r.table[2*j], r.table[2*j+1] = x, uint64(i)
		r.xs[i] = x
	}
	slices.Sort(r.xs)
	return time.Since(start).Nanoseconds()
}

// normalized returns each time of ns divided by the kernel time that
// follows it in ref, multiplied by refMS·scale: the times on the reference
// machine in the unit scale gives (1 for ms, 1e-3 for s).
func normalized(ns, ref []int64, scale float64) []float64 {
	out := make([]float64, len(ns))
	for i := range ns {
		out[i] = float64(ns[i]) / float64(ref[i]) * refMS * scale
	}
	return out
}
