package sched

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestGraphAddAssignsIDs(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"})
	if a.ID != 0 || b.ID != 1 || g.Len() != 2 {
		t.Fatalf("ids %d %d len %d", a.ID, b.ID, g.Len())
	}
}

func TestAddDepSelfPanics(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddDep(a, a)
}

func TestValidateDetectsCycle(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	c := g.Add(&Task{})
	g.AddDep(a, b)
	g.AddDep(b, c)
	g.AddDep(c, a)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateOKChain(t *testing.T) {
	g := NewGraph()
	var prev *Task
	for i := 0; i < 10; i++ {
		cur := g.Add(&Task{})
		if prev != nil {
			g.AddDep(prev, cur)
		}
		prev = cur
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 9 {
		t.Fatalf("edges = %d", g.Edges())
	}
}

func TestRunnerRespectsDependencies(t *testing.T) {
	// Build a diamond: a -> {b, c} -> d and verify observed order.
	for _, workers := range []int{1, 2, 4, 8} {
		g := NewGraph()
		var order []int
		var mu sync.Mutex
		rec := func(id int) func() {
			return func() {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		}
		a := g.Add(&Task{Run: rec(0)})
		b := g.Add(&Task{Run: rec(1)})
		c := g.Add(&Task{Run: rec(2)})
		d := g.Add(&Task{Run: rec(3)})
		g.AddDep(a, b)
		g.AddDep(a, c)
		g.AddDep(b, d)
		g.AddDep(c, d)
		if _, err := Run(context.Background(), g, workers, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
		if len(order) != 4 || order[0] != 0 || order[3] != 3 {
			t.Fatalf("workers=%d order=%v", workers, order)
		}
	}
}

func TestRunnerPriorityOrderSequential(t *testing.T) {
	// With one worker, independent tasks must run in priority order
	// (ties by insertion order).
	g := NewGraph()
	var order []int
	rec := func(id int) func() { return func() { order = append(order, id) } }
	g.Add(&Task{Run: rec(0), Priority: 1})
	g.Add(&Task{Run: rec(1), Priority: 5})
	g.Add(&Task{Run: rec(2), Priority: 5})
	g.Add(&Task{Run: rec(3), Priority: 9})
	if _, err := Run(context.Background(), g, 1, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

func TestRunnerAllTasksRunOnce(t *testing.T) {
	const n = 500
	g := NewGraph()
	var count atomic.Int64
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tasks[i] = g.Add(&Task{Run: func() { count.Add(1) }})
	}
	// Random-ish layered dependencies.
	for i := 10; i < n; i++ {
		g.AddDep(tasks[i-10], tasks[i])
		if i%3 == 0 {
			g.AddDep(tasks[i-7], tasks[i])
		}
	}
	if _, err := Run(context.Background(), g, 4, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != n {
		t.Fatalf("ran %d tasks, want %d", count.Load(), n)
	}
}

func TestRunnerTraceEvents(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.Add(&Task{Kind: KindS, Run: func() {}})
	}
	events, err := Run(context.Background(), g, 3, SubmitOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("got %d events", len(events))
	}
	seen := map[int]bool{}
	for _, e := range events {
		if e.Worker < 0 || e.Worker >= 3 {
			t.Fatalf("bad worker %d", e.Worker)
		}
		if e.End < e.Start {
			t.Fatalf("end before start: %+v", e)
		}
		if seen[e.TaskID] {
			t.Fatalf("task %d traced twice", e.TaskID)
		}
		seen[e.TaskID] = true
	}
}

func TestRunnerEmptyGraph(t *testing.T) {
	if ev, err := Run(context.Background(), NewGraph(), 2, SubmitOptions{Trace: true}); ev != nil || err != nil {
		t.Fatalf("expected nil events and error, got %v, %v", ev, err)
	}
}

// TestRunnerInvalidGraphRejected checks that a cyclic graph is refused at
// submission: the error comes back and no task runs.
func TestRunnerInvalidGraphRejected(t *testing.T) {
	g := NewGraph()
	var ran atomic.Int64
	a := g.Add(&Task{Run: func() { ran.Add(1) }})
	b := g.Add(&Task{Run: func() { ran.Add(1) }})
	g.AddDep(a, b)
	g.AddDep(b, a)
	if _, err := Run(context.Background(), g, 1, SubmitOptions{}); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks of a rejected graph ran", ran.Load())
	}
}

func TestCriticalPath(t *testing.T) {
	// Chain of 3 unit tasks plus one independent: span 3, work 4.
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	c := g.Add(&Task{})
	g.Add(&Task{})
	g.AddDep(a, b)
	g.AddDep(b, c)
	span, work := g.CriticalPath(func(*Task) float64 { return 1 })
	if span != 3 || work != 4 {
		t.Fatalf("span=%v work=%v", span, work)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindP: "P", KindL: "L", KindU: "U", KindS: "S", KindOther: "?"} {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", k, k.String())
		}
	}
}

// topologicalProperty checks, for random layered DAGs, that every
// topological constraint holds in the observed completion order under the
// given policy.
func topologicalProperty(t *testing.T, policy Policy) {
	f := func(seed int64, workers uint8) bool {
		w := int(workers)%6 + 1
		g := NewGraph()
		const n = 60
		tasks := make([]*Task, n)
		pos := make([]int64, n) // completion sequence numbers
		var ctr atomic.Int64
		for i := 0; i < n; i++ {
			i := i
			tasks[i] = g.Add(&Task{Run: func() { pos[i] = ctr.Add(1) }})
		}
		s := uint64(seed)
		edges := [][2]int{}
		for i := 1; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i))
			g.AddDep(tasks[j], tasks[i])
			edges = append(edges, [2]int{j, i})
		}
		if _, err := Run(context.Background(), g, w, SubmitOptions{Policy: policy, Seed: seed}); err != nil {
			return false
		}
		for _, e := range edges {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerTopologicalProperty(t *testing.T) { topologicalProperty(t, Priority) }

// TestRunnerTaskPanicPropagates checks that a task panic reaches the caller
// as Wait's error, wrapping the panic value, instead of crashing a worker.
func TestRunnerTaskPanicPropagates(t *testing.T) {
	g := NewGraph()
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		g.Add(&Task{Label: "w", Run: func() {
			if i == 7 {
				panic("numeric bug")
			}
			ran.Add(1)
		}})
	}
	_, err := Run(context.Background(), g, 4, SubmitOptions{})
	if err == nil || !strings.Contains(err.Error(), "numeric bug") {
		t.Fatalf("Wait error %v does not carry the task panic", err)
	}
}

func TestRunnerPanicStopsRemainingWork(t *testing.T) {
	// With one worker and a first task that panics, no later task must run.
	g := NewGraph()
	var ran atomic.Int64
	g.Add(&Task{Priority: 10, Run: func() { panic("boom") }})
	for i := 0; i < 5; i++ {
		g.Add(&Task{Run: func() { ran.Add(1) }})
	}
	if _, err := Run(context.Background(), g, 1, SubmitOptions{}); err == nil {
		t.Fatal("panicking submission reported no error")
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran after the panic", ran.Load())
	}
}

func TestPoolStealingAllTasksOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 300
		g := NewGraph()
		var count atomic.Int64
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			tasks[i] = g.Add(&Task{Run: func() { count.Add(1) }})
		}
		for i := 7; i < n; i++ {
			g.AddDep(tasks[i-7], tasks[i])
		}
		if _, err := Run(context.Background(), g, workers, SubmitOptions{Policy: Stealing}); err != nil {
			t.Fatal(err)
		}
		if count.Load() != n {
			t.Fatalf("workers=%d: ran %d of %d", workers, count.Load(), n)
		}
	}
}

func TestPoolStealingTopologicalProperty(t *testing.T) { topologicalProperty(t, Stealing) }

func TestPoolStealingTrace(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 25; i++ {
		g.Add(&Task{Run: func() {}})
	}
	events, err := Run(context.Background(), g, 3, SubmitOptions{Trace: true, Policy: Stealing})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 25 {
		t.Fatalf("%d events", len(events))
	}
}

func TestPoolStealingPanicPropagates(t *testing.T) {
	g := NewGraph()
	g.Add(&Task{Run: func() { panic("steal boom") }})
	for i := 0; i < 10; i++ {
		g.Add(&Task{Run: func() {}})
	}
	_, err := Run(context.Background(), g, 3, SubmitOptions{Policy: Stealing})
	if err == nil || !strings.Contains(err.Error(), "steal boom") {
		t.Fatalf("Wait error %v does not carry the task panic", err)
	}
}

func TestPoolStealingEmptyGraph(t *testing.T) {
	if ev, err := Run(context.Background(), NewGraph(), 2, SubmitOptions{Trace: true, Policy: Stealing}); ev != nil || err != nil {
		t.Fatalf("expected nil events and error, got %v, %v", ev, err)
	}
}
