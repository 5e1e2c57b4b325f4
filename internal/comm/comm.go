// Package comm quantifies the communication and synchronization behavior
// that gives communication-avoiding algorithms their name — the paper's
// Sections I-II claims, made measurable:
//
//   - A classic partial-pivoting panel factorization synchronizes once per
//     column (each pivot search is a reduction across the threads sharing
//     the panel): b synchronization points per panel.
//   - TSLU/TSQR synchronize once per reduction-tree level: log2(Tr) points
//     for a binary tree, 1 for a flat tree, 1 + log2(Tr/4) for the hybrid.
//
// The package provides both closed-form counts (PanelSyncs, FactorSyncs)
// and graph-derived metrics (Analyze) computed from the actual task DAGs,
// so the theory can be checked against the implementation.
//
// internal/bench is its only caller: it backs the `cabench -exp comm`
// table cited in EXPERIMENTS.md.
package comm

import (
	"math"

	"repro/internal/sched"
	"repro/internal/tslu"
)

// PanelSyncs returns the number of synchronization points one panel
// factorization needs when its work is shared by tr threads.
//
// For the classic algorithm (tree-less GEPP), each of the b columns needs a
// pivot search across all participating threads: b synchronizations. For
// ca-pivoting, only the reduction-tree levels synchronize.
func PanelSyncs(b, tr int, tree tslu.Tree, classic bool) int {
	if tr <= 1 {
		return 0 // a single thread never waits
	}
	if classic {
		return b
	}
	steps := tslu.PlanReduction(tr, tree)
	return planDepth(tr, steps)
}

// planDepth computes the level count of a reduction plan.
func planDepth(nLeaves int, steps []tslu.MergeStep) int {
	depth := make(map[int]int, nLeaves+len(steps))
	max := 0
	for _, st := range steps {
		lvl := 0
		for _, in := range st.In {
			if depth[in] > lvl {
				lvl = depth[in]
			}
		}
		depth[st.Out] = lvl + 1
		if lvl+1 > max {
			max = lvl + 1
		}
	}
	return max
}

// FactorSyncs returns the total panel-synchronization count of a full m x n
// factorization with panel width b: panels * syncs-per-panel.
func FactorSyncs(m, n, b, tr int, tree tslu.Tree, classic bool) int {
	_ = m
	panels := (n + b - 1) / b
	return panels * PanelSyncs(b, tr, tree, classic)
}

// Metrics summarizes the parallel structure of a task graph.
type Metrics struct {
	// Tasks and Edges are the graph size.
	Tasks, Edges int
	// SpanTasks is the critical-path length in tasks (unit durations): the
	// minimum number of sequential scheduling rounds.
	SpanTasks float64
	// WorkFlops and SpanFlops are the total and critical-path flop counts;
	// WorkFlops/SpanFlops bounds achievable speedup (Brent's theorem).
	WorkFlops, SpanFlops float64
	// MaxParallelism is WorkFlops / SpanFlops.
	MaxParallelism float64
}

// Analyze computes the metrics of a task graph.
func Analyze(g *sched.Graph) Metrics {
	spanT, _ := g.CriticalPath(func(*sched.Task) float64 { return 1 })
	spanF, workF := g.CriticalPath(func(t *sched.Task) float64 { return t.Flops })
	m := Metrics{
		Tasks:     g.Len(),
		Edges:     g.Edges(),
		SpanTasks: spanT,
		WorkFlops: workF,
		SpanFlops: spanF,
	}
	if spanF > 0 {
		m.MaxParallelism = workF / spanF
	}
	return m
}

// TSLUVolume returns the number of matrix words a tr-way tournament over an
// m x b panel communicates between threads: each reduction step moves the
// loser candidates (b x b words per participant beyond the first). The
// classic algorithm instead broadcasts a pivot row per column (b words per
// thread per column), plus the swap traffic.
func TSLUVolume(m, b, tr int, tree tslu.Tree) float64 {
	if tr <= 1 {
		return 0
	}
	words := 0.0
	for _, st := range tslu.PlanReduction(tr, tree) {
		// Every non-leading input's b x b candidate block moves to the
		// thread performing the merge.
		words += float64(len(st.In)-1) * float64(b) * float64(b)
	}
	return words
}

// ClassicPanelVolume returns the words exchanged by a classic parallel
// panel factorization of an m x b panel over tr threads: per column, the
// pivot candidates (one word per thread) plus the pivot row broadcast
// (b words per thread).
func ClassicPanelVolume(m, b, tr int) float64 {
	if tr <= 1 {
		return 0
	}
	_ = m
	perColumn := float64(tr) /* pivot candidates */ + float64(tr)*float64(b) /* row broadcast */
	return float64(b) * perColumn
}

// SpeedupBound returns the maximum speedup on p cores implied by the
// graph's work/span ratio (Brent): min(p, work/span).
func SpeedupBound(m Metrics, p int) float64 {
	return math.Min(float64(p), m.MaxParallelism)
}
