package main

import "time"

// shape is one factorization size with its panel width b.
type shape struct {
	M, N, B int
}

// workload is one benchmark input set: a closed loop of alternating CALU
// and CAQR calls on a factor.Engine at one shape.
type workload struct {
	Name  string
	Shape shape
}

var workloads = []workload{
	{
		// The paper's regime: exactly one panel, so the time goes to the
		// TSLU/TSQR reduction, the leaf kernels and the L-block right
		// TRSM; trailing GEMM and scheduling barely figure.
		Name:  "tall-skinny",
		Shape: shape{M: 100000, N: 100, B: 100},
	},
	{
		// About 15 panels and hundreds of tasks: look-ahead scheduling,
		// GEMM trailing updates, left TRSM for the U blocks, row swaps and
		// CAQR tree updates; the panel is a small share.
		Name:  "square",
		Shape: shape{M: 1500, N: 1500, B: 100},
	},
}

const (
	// serviceShare is the share of a traced run spent on the service leg,
	// a short stream of small LU/QR requests to a facsvc child that
	// measures the per-request layers (codec, cache, batch window) the
	// in-process workloads do not cross; the rest goes to the in-process
	// legs.
	serviceShare = 0.25
	// serviceRate is the service stream's offered load in requests per
	// second, about half of what its mix sustains on a 2-vCPU host.
	serviceRate = 50
	// serviceLimit is the latency past which a response counts as failed.
	serviceLimit = time.Second
)

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
