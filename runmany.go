package hostsim

import "hostsim/internal/runner"

// Job is one simulation in a RunMany batch.
type Job struct {
	Config   Config
	Workload Workload
}

// RunOption tunes a RunMany call.
type RunOption func(*runOptions)

type runOptions struct{ workers int }

// WithParallelism sets the number of simulations run concurrently.
// n <= 0 means runtime.NumCPU(); 1 runs the batch serially.
func WithParallelism(n int) RunOption {
	return func(o *runOptions) { o.workers = n }
}

// RunMany executes a batch of independent simulations across CPU cores,
// up to runtime.NumCPU() at a time by default. Results are returned in
// job order, so code that formats them produces byte-identical output
// whatever the parallelism — each run owns its engine, hosts and seeded
// RNG, making runs fully independent.
//
// The returned error is the first job error in submission order (the
// same one a serial loop would have hit first); the result slice always
// has one entry per job, nil where that job failed.
func RunMany(jobs []Job, opts ...RunOption) ([]*Result, error) {
	var ro runOptions // workers 0: runtime.NumCPU()
	for _, o := range opts {
		o(&ro)
	}
	res := runner.Map(jobs, func(j Job) (*Result, error) {
		return Run(j.Config, j.Workload)
	}, ro.workers)
	out := make([]*Result, len(res))
	var firstErr error
	for i, r := range res {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = r.Err
			}
			continue
		}
		out[i] = r.Value
	}
	return out, firstErr
}
