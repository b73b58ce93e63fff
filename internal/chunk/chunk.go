// Package chunk provides the observers' one append-only log: it grows in
// chunks and never copies one.
package chunk

import "unsafe"

const (
	// minLen is the element count of a log's first chunk.
	minLen = 16
	// fullBytes bounds a chunk: 64 KB, eight 8 KB pages. A full chunk
	// holds as many elements as fit, so it wastes less than one element
	// to size-class rounding.
	fullBytes = 64 << 10
)

// Log is an append-only sequence stored in chunks that are never copied:
// an element stays at its address until its chunk is released. Until the
// log holds a full chunk's worth, each new chunk is as large as all
// earlier ones together (16 elements at first); after that each chunk
// holds 64 KB. A log of n elements so allocates their bytes, less than
// one chunk of spare room, and an index of chunk headers. The zero value
// is an empty log.
//
// Positions number the elements from 0 in append order. Release drops
// whole leading chunks and leaves every later position where it was.
type Log[T any] struct {
	chunks [][]T
	off    int // position of chunks[0][0]
	n      int // position one past the newest element
}

// fullLen is the element count of a full chunk.
func fullLen[T any]() int {
	var v T
	return max(1, fullBytes/max(1, int(unsafe.Sizeof(v))))
}

// Len returns the position one past the newest element: the number of
// elements ever appended, released ones included.
func (l *Log[T]) Len() int { return l.n }

// Append adds v at position Len.
func (l *Log[T]) Append(v T) {
	if k := len(l.chunks) - 1; k >= 0 && len(l.chunks[k]) < cap(l.chunks[k]) {
		l.chunks[k] = append(l.chunks[k], v)
	} else {
		l.chunks = append(l.chunks, append(make([]T, 0, min(max(l.n, minLen), fullLen[T]())), v))
	}
	l.n++
}

// At returns the element at position pos, which must be held: appended,
// and not released. It walks the chunks oldest first, so it is cheapest
// near the oldest held element.
func (l *Log[T]) At(pos int) *T {
	if pos < l.off || pos >= l.n {
		panic("chunk: position out of range")
	}
	pos -= l.off
	for _, c := range l.chunks {
		if pos < len(c) {
			return &c[pos]
		}
		pos -= len(c)
	}
	panic("unreachable")
}

// Release drops every chunk that holds only positions below pos. Views
// taken by Slice keep the chunks they share.
func (l *Log[T]) Release(pos int) {
	k := 0
	for k < len(l.chunks) && l.off+len(l.chunks[k]) <= pos {
		l.off += len(l.chunks[k])
		k++
	}
	if k > 0 {
		m := copy(l.chunks, l.chunks[k:])
		clear(l.chunks[m:])
		l.chunks = l.chunks[:m]
	}
}

// Chunks returns the held elements in order, oldest chunk first, without
// copying them. The caller must not modify the result.
func (l *Log[T]) Chunks() [][]T { return l.chunks }

// Slice returns a view of held positions [lo, hi), renumbered from 0. The view shares the log's chunks: later appends to
// the log leave it unchanged, and appending to the view never writes into
// a chunk it shares.
func (l *Log[T]) Slice(lo, hi int) Log[T] {
	if lo < l.off || lo > hi || hi > l.n {
		panic("chunk: slice out of range")
	}
	v := Log[T]{n: hi - lo}
	lo, hi = lo-l.off, hi-l.off
	for _, c := range l.chunks {
		if start, end := max(lo, 0), min(hi, len(c)); start < end {
			v.chunks = append(v.chunks, c[start:end:end])
		}
		lo, hi = lo-len(c), hi-len(c)
	}
	return v
}

// Flatten returns the held elements as one slice. When more than one
// chunk is held it copies them, once, into one slice that becomes the
// log's only chunk: treat the result as read-only, and note that it moves
// every element.
func (l *Log[T]) Flatten() []T {
	switch len(l.chunks) {
	case 0:
		return nil
	case 1:
	default:
		flat := make([]T, 0, l.n-l.off)
		for _, c := range l.chunks {
			flat = append(flat, c...)
		}
		clear(l.chunks)
		l.chunks = append(l.chunks[:0], flat)
	}
	c := l.chunks[0]
	return c[:len(c):len(c)]
}
