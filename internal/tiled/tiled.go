// Package tiled implements PLASMA-style tiled LU and QR factorizations —
// the "class of parallel tiled linear algebra algorithms" of Buttari,
// Langou, Kurzak and Dongarra that the paper benchmarks CALU and CAQR
// against (PLASMA_dgetrf, PLASMA_dgeqrf).
//
// The matrix is partitioned into t x t tiles. Tiled QR eliminates each
// panel with a flat chain of kernels: GEQRT factors the diagonal tile,
// TSQRT annihilates each sub-diagonal tile against the diagonal R
// (triangle-on-top-of-square QR), and ORMQR/TSMQR propagate the
// transformations across the trailing tiles. Tiled LU replaces pivoted
// panel factorization with incremental (block pairwise) pivoting: GETRF on
// the diagonal tile, TSTRF for each sub-diagonal tile (GEPP of the stacked
// [U; tile] pair), GESSM/SSSSM for the updates.
//
// The defining structural property — and the reason the paper's CALU/CAQR
// beat these algorithms on tall-and-skinny matrices — is that the panel is
// eliminated by a sequential chain of length M (the number of tile rows):
// each TSQRT/TSTRF depends on the previous one. The trade-off is that the
// panel never blocks the trailing updates of *other* columns, which is why
// the tiled algorithms win back ground as n grows.
//
// Like package core, the factorizations execute as task graphs on the
// dynamic scheduler, and the graphs can be built unbound (cost annotations
// only) for virtual-time simulation.
package tiled

import (
	"fmt"

	"repro/internal/sched"
)

// Options configures the tiled algorithms.
type Options struct {
	// TileSize is the tile edge t. PLASMA's default is around 200; the
	// paper's comparisons run it with its default parameters.
	TileSize int
	// Workers is the number of scheduler goroutines of the pool
	// GETRF/GEQRF run on.
	Workers int
	// Trace records per-task execution events.
	Trace bool
}

func (o *Options) normalize(n int) {
	if o.TileSize <= 0 {
		o.TileSize = min(200, n)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// grid describes the tile decomposition of an m x n matrix.
type grid struct {
	m, n, t int
	mt, nt  int // tile counts
}

func newGrid(m, n, t int) grid {
	return grid{m: m, n: n, t: t, mt: (m + t - 1) / t, nt: (n + t - 1) / t}
}

// tile returns the row/col offsets and dimensions of tile (i, j).
func (g grid) tile(i, j int) (r0, c0, rows, cols int) {
	r0, c0 = i*g.t, j*g.t
	rows = min(g.t, g.m-r0)
	cols = min(g.t, g.n-c0)
	return r0, c0, rows, cols
}

// writerTable tracks the last task writing each tile, for dependency wiring.
type writerTable struct {
	g grid
	w []*sched.Task
}

func newWriterTable(g grid) *writerTable {
	return &writerTable{g: g, w: make([]*sched.Task, g.mt*g.nt)}
}

func (wt *writerTable) get(i, j int) *sched.Task { return wt.w[i*wt.g.nt+j] }
func (wt *writerTable) set(i, j int, t *sched.Task) {
	wt.w[i*wt.g.nt+j] = t
}

// dep wires deduplicated dependencies.
func dep(g *sched.Graph, t *sched.Task, pres ...*sched.Task) {
	seen := make(map[int]bool, len(pres))
	for _, p := range pres {
		if p == nil || seen[p.ID] {
			continue
		}
		seen[p.ID] = true
		g.AddDep(p, t)
	}
}

// Priorities: like CALU/CAQR, tasks are ordered by the block column they
// touch (PLASMA's left-looking progression emerges from the DAG itself, but
// column-ordered priorities keep the panel chain moving).
func tiledPriority(nt, col, bonus int) int {
	return (nt-col)*1000 + bonus
}

const (
	bonusPanel  = 90
	bonusUpdate = 70
)

// fcube returns float64(n)^3.
func fcube(n int) float64 {
	f := float64(n)
	return f * f * f
}

func panicIf(cond bool, format string, args ...any) {
	if cond {
		panic(fmt.Sprintf(format, args...))
	}
}
