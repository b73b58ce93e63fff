// Package fifo provides the datapath's one bounded-memory FIFO queue.
package fifo

// Ring is a FIFO queue in a circular buffer whose length is a power of
// two. Its memory follows the most items it has held at once, not how many
// have passed through it: a queue that never drains reuses its slots
// instead of growing. It grows by doubling, from 2, and never shrinks. The
// zero value is an empty queue.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head item. It zeroes the slot, so the ring
// retains no pointer the caller has taken. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("fifo: Pop of empty ring")
	}
	p := &r.buf[r.head]
	v := *p
	var zero T
	*p = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns the head item, the next one Pop returns. The ring must not
// be empty. The pointer is valid until the next Push.
func (r *Ring[T]) Front() *T { return r.At(0) }

// Back returns the tail item, the one Push added last. The ring must not
// be empty. The pointer is valid until the next Push.
func (r *Ring[T]) Back() *T { return r.At(r.n - 1) }

// At returns the i-th item from the head, 0 ≤ i < Len. The pointer is
// valid until the next Push.
func (r *Ring[T]) At(i int) *T {
	if uint(i) >= uint(r.n) {
		panic("fifo: index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// grow doubles the buffer, unwrapping it so the head lands at index 0.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
