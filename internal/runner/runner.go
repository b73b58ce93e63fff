// Package runner provides a deterministic worker-pool for fanning
// independent simulation runs across CPU cores.
//
// Each hostsim Run owns its engine, hosts and RNG, so runs are trivially
// parallel — the only thing that must NOT change under parallelism is the
// output. Map therefore returns results in submission order regardless of
// completion order: output produced from the results is byte-identical to
// a serial run, which the determinism tests assert.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// PanicError wraps a panic recovered from a job so one diverging
// simulation does not tear down the whole sweep.
type PanicError struct {
	Index int    // job index that panicked
	Value any    // the recovered value
	Stack string // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Result pairs one job's output with its error (exactly one is
// meaningful).
type Result[R any] struct {
	Value R
	Err   error
}

// Map runs fn over every job, up to workers at a time, and returns the
// results in the jobs' submission order. workers <= 0 means
// runtime.NumCPU(); 1 runs jobs inline on the calling goroutine. Map never
// returns early: every job gets a slot in the result slice, with Err set
// for errors and panics.
func Map[T, R any](jobs []T, fn func(T) (R, error), workers int) []Result[R] {
	results := make([]Result[R], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	if workers == 1 {
		// Serial fast path: no goroutines, no channel traffic. Keeps
		// -jobs 1 behaviour (and stack traces) maximally simple.
		for i := range jobs {
			results[i].Value, results[i].Err = runOne(i, jobs[i], fn)
		}
		return results
	}

	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				results[i].Value, results[i].Err = runOne(i, jobs[i], fn)
				done <- struct{}{}
			}
		}()
	}
	go func() {
		for i := range jobs {
			idx <- i
		}
		close(idx)
	}()
	for range jobs {
		<-done
	}
	return results
}

// runOne invokes fn with panic capture.
func runOne[T, R any](i int, job T, fn func(T) (R, error)) (val R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(job)
}
