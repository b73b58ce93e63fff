package chunk

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// rec is a 16-byte element: a full chunk holds 4,096 of them.
type rec struct{ a, b int64 }

// wide is an 88-byte element, the size of a probe record: a full chunk
// holds 744 of them, not a power of two.
type wide [11]int64

// flat concatenates a log's chunks.
func flat[T any](l *Log[T]) []T {
	var out []T
	for _, c := range l.Chunks() {
		out = append(out, c...)
	}
	return out
}

// chunkLens returns the length of each chunk a log holds.
func chunkLens[T any](l *Log[T]) []int {
	var out []int
	for _, c := range l.Chunks() {
		out = append(out, len(c))
	}
	return out
}

// TestLogChunkSizes: chunks double the log until it holds a full chunk's
// worth, then each holds 64 KB, for element sizes that do and do not
// divide 64 KB.
func TestLogChunkSizes(t *testing.T) {
	var r Log[rec]
	for i := 0; i < 4096+4096+1; i++ {
		r.Append(rec{})
	}
	want := []int{16, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 1}
	if got := chunkLens(&r); !reflect.DeepEqual(got, want) {
		t.Errorf("16-byte chunks %v, want %v", got, want)
	}
	var w Log[wide]
	for i := 0; i < 1024+744+1; i++ {
		w.Append(wide{})
	}
	want = []int{16, 16, 32, 64, 128, 256, 512, 744, 1}
	if got := chunkLens(&w); !reflect.DeepEqual(got, want) {
		t.Errorf("88-byte chunks %v, want %v", got, want)
	}
	size := int(unsafe.Sizeof(wide{}))
	if b := cap(w.Chunks()[7]) * size; b > fullBytes || b <= fullBytes-size {
		t.Errorf("full chunk of %d bytes, want the most that fit in %d", b, fullBytes)
	}
}

// TestLogMatchesSlice appends across the growth boundary and several
// full-chunk boundaries, checking At, Chunks and Len against a plain
// slice at every size where a chunk fills.
func TestLogMatchesSlice(t *testing.T) {
	var l Log[rec]
	var want []rec
	for i := 0; i < 20000; i++ {
		v := rec{int64(i), int64(-i)}
		l.Append(v)
		want = append(want, v)
		if c := l.Chunks(); len(c[len(c)-1]) != cap(c[len(c)-1]) && i != 19999 {
			continue
		}
		if l.Len() != len(want) || l.off != 0 {
			t.Fatalf("after %d appends: Len %d, Start %d", i+1, l.Len(), l.off)
		}
		if got := flat(&l); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d appends: chunks differ from the slice", i+1)
		}
		for _, p := range []int{0, i / 2, i} {
			if *l.At(p) != want[p] {
				t.Fatalf("after %d appends: At(%d) = %v, want %v", i+1, p, *l.At(p), want[p])
			}
		}
	}
}

// TestLogNeverCopiesChunks: element 0 keeps its address through 10k
// appends, so no chunk was ever moved.
func TestLogNeverCopiesChunks(t *testing.T) {
	var l Log[rec]
	l.Append(rec{1, 1})
	p := l.At(0)
	for i := 1; i < 10000; i++ {
		l.Append(rec{int64(i), 0})
	}
	if l.At(0) != p || *p != (rec{1, 1}) {
		t.Errorf("element 0 moved or changed: %p %v, was %p", l.At(0), *l.At(0), p)
	}
}

// TestLogZeroValue: a zero Log is empty and usable.
func TestLogZeroValue(t *testing.T) {
	var l Log[int]
	if l.Len() != 0 || l.off != 0 || l.Chunks() != nil || l.Flatten() != nil {
		t.Fatalf("zero log: Len %d, Start %d, Chunks %v", l.Len(), l.off, l.Chunks())
	}
	l.Release(0)
	if v := l.Slice(0, 0); v.Len() != 0 || v.Chunks() != nil {
		t.Fatalf("empty view: Len %d, Chunks %v", v.Len(), v.Chunks())
	}
	l.Append(7)
	if l.Len() != 1 || *l.At(0) != 7 || !reflect.DeepEqual(l.Flatten(), []int{7}) {
		t.Fatalf("after one append: Len %d, Flatten %v", l.Len(), l.Flatten())
	}
}

// TestLogReleaseKeepsPositions: releasing dead leading chunks drops only
// whole chunks below the cut, and every held position reads what was
// appended there. A view taken before the release keeps its elements.
func TestLogReleaseKeepsPositions(t *testing.T) {
	var l Log[int]
	for i := 0; i < 300; i++ {
		l.Append(i)
	}
	view := l.Slice(10, 200)
	l.Release(70) // chunks [0,16) [16,32) [32,64) go; [64,128) holds 70
	if l.off != 64 || l.Len() != 300 {
		t.Fatalf("after Release(70): Start %d, Len %d, want 64, 300", l.off, l.Len())
	}
	for p := l.off; p < l.Len(); p++ {
		if *l.At(p) != p {
			t.Fatalf("At(%d) = %d", p, *l.At(p))
		}
	}
	if got := flat(&l); len(got) != 300-64 || got[0] != 64 {
		t.Fatalf("held %d elements from %d, want 236 from 64", len(got), got[0])
	}
	l.Release(64) // nothing below 64 is left
	l.Release(300)
	if l.off != 300 || len(l.Chunks()) != 0 {
		t.Fatalf("after Release(Len): Start %d, %d chunks", l.off, len(l.Chunks()))
	}
	l.Append(300)
	if *l.At(300) != 300 || l.off != 300 || l.Len() != 301 {
		t.Fatalf("append after a full release: At(300) %d, Start %d, Len %d", *l.At(300), l.off, l.Len())
	}
	got := flat(&view)
	if view.Len() != 190 || len(got) != 190 {
		t.Fatalf("view Len %d, %d elements, want 190", view.Len(), len(got))
	}
	for i, v := range got {
		if v != 10+i || *view.At(i) != 10+i {
			t.Fatalf("view element %d = %d", i, v)
		}
	}
}

// TestLogSliceIsolated: a view does not see later appends to its log, and
// appending to a view writes no chunk the log shares.
func TestLogSliceIsolated(t *testing.T) {
	var l Log[int]
	for i := 0; i < 20; i++ {
		l.Append(i)
	}
	view := l.Slice(5, 18) // ends inside the log's second chunk
	view.Append(-1)
	l.Append(20)
	for p := 0; p < l.Len(); p++ {
		if *l.At(p) != p {
			t.Fatalf("log At(%d) = %d after appending to a view", p, *l.At(p))
		}
	}
	want := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, -1}
	if got := flat(&view); !reflect.DeepEqual(got, want) {
		t.Fatalf("view %v, want %v", got, want)
	}
	if empty := l.Slice(7, 7); empty.Len() != 0 || len(empty.Chunks()) != 0 {
		t.Fatalf("empty view: Len %d, %d chunks", empty.Len(), len(empty.Chunks()))
	}
}

// TestLogFlatten: Flatten returns every held element once, in order, makes
// one chunk of them, and a second call returns that chunk again.
func TestLogFlatten(t *testing.T) {
	var l Log[int]
	for i := 0; i < 1000; i++ {
		l.Append(i)
	}
	l.Release(100)
	f := l.Flatten()
	if len(f) != 1000-64 || f[0] != 64 || f[len(f)-1] != 999 || len(l.Chunks()) != 1 {
		t.Fatalf("Flatten: %d elements %d..%d, %d chunks", len(f), f[0], f[len(f)-1], len(l.Chunks()))
	}
	if again := l.Flatten(); &again[0] != &f[0] {
		t.Error("a second Flatten copied again")
	}
	l.Append(1000)
	if *l.At(1000) != 1000 || f[len(f)-1] != 999 || cap(f) != len(f) {
		t.Errorf("append after Flatten: At(1000) %d, flat tail %d, cap %d len %d", *l.At(1000), f[len(f)-1], cap(f), len(f))
	}
}

// TestLogAllocationBound: a log of n elements allocates at most their
// bytes, one chunk and the index of chunk headers, at n on and just past
// several chunk boundaries. The index grows by append, so it allocates
// under four headers per chunk. An appended slice allocates about four
// times the elements' bytes.
func TestLogAllocationBound(t *testing.T) {
	size := int(unsafe.Sizeof(rec{}))
	for _, n := range []int{1, 100, 4096, 4097, 10000, 12289, 50000} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var l Log[rec]
		for i := 0; i < n; i++ {
			l.Append(rec{})
		}
		runtime.ReadMemStats(&after)
		bound := n*size + fullBytes + 4*len(l.Chunks())*int(unsafe.Sizeof([]rec{}))
		if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
			t.Errorf("%d elements allocated %d B, want at most %d", n, got, bound)
		}
		runtime.KeepAlive(&l)
	}
}

var sink int64

// BenchmarkLogAppend appends 16-byte elements, starting a fresh log every
// 64k so the benchmark's memory stays at a few MB.
func BenchmarkLogAppend(b *testing.B) {
	var l Log[rec]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l.Len() == 1<<16 {
			sink += l.At(0).a
			l = Log[rec]{}
		}
		l.Append(rec{int64(i), 0})
	}
}
