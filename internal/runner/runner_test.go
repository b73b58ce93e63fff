package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{1, 2, 8, 0} {
		res := Map(jobs, func(j int) (int, error) { return j * j, nil }, workers)
		if len(res) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(res), len(jobs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d: job %d error: %v", workers, i, r.Err)
			}
			if r.Value != i*i {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, r.Value, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	res := Map(nil, func(int) (int, error) { return 0, nil }, 0)
	if len(res) != 0 {
		t.Fatalf("got %d results, want 0", len(res))
	}
}

func TestMapActuallyParallel(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	var inFlight, peak atomic.Int32
	jobs := make([]int, 16)
	Map(jobs, func(int) (int, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inFlight.Add(-1)
		return 0, nil
	}, 4)
	if peak.Load() < 2 {
		t.Errorf("peak concurrency = %d, want >= 2", peak.Load())
	}
}

func TestMapPanicCaptured(t *testing.T) {
	jobs := []int{0, 1, 2, 3}
	res := Map(jobs, func(j int) (int, error) {
		if j == 2 {
			panic("boom")
		}
		return j, nil
	}, 2)
	for i, r := range res {
		if i == 2 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job 2: got err %v, want PanicError", r.Err)
			}
			if pe.Index != 2 || pe.Value != "boom" || pe.Stack == "" {
				t.Errorf("bad PanicError: %+v", pe)
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("job %d: got (%d, %v)", i, r.Value, r.Err)
		}
	}
}

func TestMapPanicCapturedSerial(t *testing.T) {
	res := Map([]int{0}, func(int) (int, error) { panic("serial boom") }, 1)
	var pe *PanicError
	if !errors.As(res[0].Err, &pe) {
		t.Fatalf("got err %v, want PanicError", res[0].Err)
	}
}

func TestMapJobError(t *testing.T) {
	sentinel := errors.New("nope")
	res := Map([]int{1}, func(int) (int, error) { return 0, sentinel }, 2)
	if !errors.Is(res[0].Err, sentinel) {
		t.Fatalf("got %v, want sentinel", res[0].Err)
	}
}

func TestMapSerialMatchesParallel(t *testing.T) {
	jobs := make([]int, 50)
	for i := range jobs {
		jobs[i] = i
	}
	fn := func(j int) (string, error) { return fmt.Sprintf("r%03d", j*7%13), nil }
	serial := Map(jobs, fn, 1)
	parallel := Map(jobs, fn, 8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result %d differs: serial %+v, parallel %+v", i, serial[i], parallel[i])
		}
	}
}
