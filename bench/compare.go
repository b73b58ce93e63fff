package main

import (
	"fmt"
	"io"
	"math"
)

// verdict classifies the move of a lower-is-better metric from base to
// next. A metric whose base spread (interquartile range over median of
// its per-round values) is wider than its bound cannot be judged:
// unresolved. A bound of 0 makes
// any rise a regression.
func verdict(base, next, spread, bound float64) string {
	if bound == 0 || base == 0 {
		switch {
		case next > base:
			return "worse"
		case next < base:
			return "better"
		}
		return "unchanged"
	}
	if spread > bound {
		return "unresolved"
	}
	switch d := (next - base) / base; {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "unchanged"
}

// opBound is op_ms's bound, against which machine drift is judged.
func opBound() float64 {
	for _, d := range endToEnd {
		if d.Name == "op_ms" {
			return d.Bound
		}
	}
	panic("no op_ms metric")
}

// compareMain compares two sets written by -out. It exits 1 when any
// (workload, end-to-end metric) got worse, or when an output digest or a
// simulated count changed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare base.json new.json")
		return 2
	}
	base, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	next, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compareSets(stdout, base, next) {
		return 1
	}
	return 0
}

// compareSets prints, for every workload and end-to-end metric, both
// values, the base spread, the bound and the verdict, then flags every
// changed digest or simulated count and the move of machine.ref_ms. It
// reports whether anything regressed or changed.
func compareSets(w io.Writer, base, next *setResult) (regressed bool) {
	nextByName := map[string]workloadResult{}
	for _, wr := range next.Workloads {
		nextByName[wr.Name] = wr
	}
	if base.Seed != next.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d); the bounds are for sets of one seed, and digests and sim counts are not comparable\n", base.Seed, next.Seed)
	}
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %9s %6s  %s\n",
		"workload", "metric", "base", "new", "delta", "spread", "bound", "verdict")
	var flags []string
	for _, b := range base.Workloads {
		n, ok := nextByName[b.Name]
		if !ok {
			flags = append(flags, b.Name+": missing from the new set")
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			bv, nv := b.Metrics[d.Name], n.Metrics[d.Name]
			sp := spread(b.Rounds[d.Name])
			v := verdict(bv, nv, sp, d.Bound)
			regressed = regressed || v == "worse"
			delta := 0.0
			switch {
			case bv != 0:
				delta = 100 * (nv - bv) / bv
			case nv != 0:
				delta = math.Inf(1)
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+7.1f%% %8.1f%% %5g%%  %s\n",
				b.Name, d.Name, bv, nv, delta, 100*sp, 100*d.Bound, v)
		}
		if base.Seed != next.Seed {
			continue
		}
		if b.Digest != n.Digest {
			flags = append(flags, fmt.Sprintf("%s: output digest changed %.16s -> %.16s", b.Name, b.Digest, n.Digest))
			regressed = true
		}
		for _, name := range simNames {
			if bv, nv := b.Metrics[name], n.Metrics[name]; bv != nv {
				flags = append(flags, fmt.Sprintf("%s: %s changed %v -> %v", b.Name, name, bv, nv))
				regressed = true
			}
		}
	}
	if len(base.Workloads) > 0 && len(next.Workloads) > 0 {
		bv, nv := base.Workloads[0].Metrics["machine.ref_ms"], next.Workloads[0].Metrics["machine.ref_ms"]
		note := ""
		if bv > 0 && math.Abs(nv-bv)/bv > opBound() {
			note = " (machine drift larger than the op_ms bound: rerun both sets)"
		}
		fmt.Fprintf(w, "machine.ref_ms %.4g -> %.4g%s\n", bv, nv, note)
	}
	for _, f := range flags {
		fmt.Fprintln(w, "FLAG", f)
	}
	return regressed
}
