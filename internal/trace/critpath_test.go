package trace

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// chainFixture builds a 3-task sequential chain with durations 1, 2, 3 on
// one worker: the whole run IS the critical path.
func chainFixture() (*Trace, *sched.Graph) {
	g := sched.NewGraph()
	a := g.Add(&sched.Task{Label: "a", Kind: sched.KindP})
	b := g.Add(&sched.Task{Label: "b", Kind: sched.KindL})
	c := g.Add(&sched.Task{Label: "c", Kind: sched.KindS})
	g.AddDep(a, b)
	g.AddDep(b, c)
	tr := &Trace{
		Workers:  1,
		Makespan: 6,
		Spans: []Span{
			{TaskID: a.ID, Worker: 0, Start: 0, End: 1, Kind: sched.KindP, Label: "a"},
			{TaskID: b.ID, Worker: 0, Start: 1, End: 3, Kind: sched.KindL, Label: "b"},
			{TaskID: c.ID, Worker: 0, Start: 3, End: 6, Kind: sched.KindS, Label: "c"},
		},
	}
	return tr, g
}

func TestCriticalPathChain(t *testing.T) {
	tr, g := chainFixture()
	cp := AnalyzeCriticalPath(tr, g)
	if cp.Length != 6 {
		t.Fatalf("Length = %g, want 6", cp.Length)
	}
	if want := []int{0, 1, 2}; !equalInts(cp.Path, want) {
		t.Fatalf("Path = %v, want %v", cp.Path, want)
	}
	if cp.Fraction != 1 {
		t.Fatalf("Fraction = %g, want 1 (fully serialized)", cp.Fraction)
	}
	if cp.OnPath[sched.KindP] != 1 || cp.OnPath[sched.KindL] != 2 || cp.OnPath[sched.KindS] != 3 {
		t.Fatalf("OnPath = %v", cp.OnPath)
	}
	if len(cp.OffPath) != 0 {
		t.Fatalf("OffPath = %v, want empty", cp.OffPath)
	}
	if cp.WorkerIdle[0] != 0 {
		t.Fatalf("WorkerIdle = %v, want 0", cp.WorkerIdle)
	}
}

// diamondFixture: a fans out to b (short) and c (long), both join into d.
// The path must route through c.
func diamondFixture() (*Trace, *sched.Graph) {
	g := sched.NewGraph()
	a := g.Add(&sched.Task{Label: "a", Kind: sched.KindP})
	b := g.Add(&sched.Task{Label: "b", Kind: sched.KindL})
	c := g.Add(&sched.Task{Label: "c", Kind: sched.KindS})
	d := g.Add(&sched.Task{Label: "d", Kind: sched.KindU})
	g.AddDep(a, b)
	g.AddDep(a, c)
	g.AddDep(b, d)
	g.AddDep(c, d)
	tr := &Trace{
		Workers:  2,
		Makespan: 7,
		Spans: []Span{
			{TaskID: a.ID, Worker: 0, Start: 0, End: 1, Kind: sched.KindP, Label: "a"},
			{TaskID: b.ID, Worker: 1, Start: 1, End: 3, Kind: sched.KindL, Label: "b"},
			{TaskID: c.ID, Worker: 0, Start: 1, End: 6, Kind: sched.KindS, Label: "c"},
			{TaskID: d.ID, Worker: 0, Start: 6, End: 7, Kind: sched.KindU, Label: "d"},
		},
	}
	return tr, g
}

func TestCriticalPathDiamond(t *testing.T) {
	tr, g := diamondFixture()
	cp := AnalyzeCriticalPath(tr, g)
	if cp.Length != 7 {
		t.Fatalf("Length = %g, want 7 (a+c+d)", cp.Length)
	}
	if want := []int{0, 2, 3}; !equalInts(cp.Path, want) {
		t.Fatalf("Path = %v, want a,c,d = %v", cp.Path, want)
	}
	if cp.OffPath[sched.KindL] != 2 {
		t.Fatalf("OffPath[L] = %g, want 2 (task b)", cp.OffPath[sched.KindL])
	}
	// Worker 0 runs a, c, d (7s busy, 0 idle); worker 1 runs only b (2s busy,
	// 5s idle).
	if cp.WorkerBusy[0] != 7 || cp.WorkerIdle[0] != 0 {
		t.Fatalf("worker 0 busy/idle = %g/%g, want 7/0", cp.WorkerBusy[0], cp.WorkerIdle[0])
	}
	if cp.WorkerBusy[1] != 2 || cp.WorkerIdle[1] != 5 {
		t.Fatalf("worker 1 busy/idle = %g/%g, want 2/5", cp.WorkerBusy[1], cp.WorkerIdle[1])
	}
	if got := cp.IdleTotal(); got != 5 {
		t.Fatalf("IdleTotal = %g, want 5", got)
	}
}

// calu2x2Fixture is the 2x2-panel CALU shape: panel 0 (P0) gates its U row
// (U0) and L block (L0); the trailing update (S0) needs both; panel 1 (P1)
// needs the update. The chain is P0 -> U0 -> S0 -> P1 when L0 is cheap.
func calu2x2Fixture() (*Trace, *sched.Graph) {
	g := sched.NewGraph()
	p0 := g.Add(&sched.Task{Label: "P k=0", Kind: sched.KindP})
	l0 := g.Add(&sched.Task{Label: "L k=0", Kind: sched.KindL})
	u0 := g.Add(&sched.Task{Label: "U k=0", Kind: sched.KindU})
	s0 := g.Add(&sched.Task{Label: "S k=0", Kind: sched.KindS})
	p1 := g.Add(&sched.Task{Label: "P k=1", Kind: sched.KindP})
	g.AddDep(p0, l0)
	g.AddDep(p0, u0)
	g.AddDep(l0, s0)
	g.AddDep(u0, s0)
	g.AddDep(s0, p1)
	tr := &Trace{
		Workers:  2,
		Makespan: 10,
		Spans: []Span{
			{TaskID: p0.ID, Worker: 0, Start: 0, End: 3, Kind: sched.KindP, Label: "P k=0"},
			{TaskID: l0.ID, Worker: 1, Start: 3, End: 4, Kind: sched.KindL, Label: "L k=0"},
			{TaskID: u0.ID, Worker: 0, Start: 3, End: 5, Kind: sched.KindU, Label: "U k=0"},
			{TaskID: s0.ID, Worker: 0, Start: 5, End: 8, Kind: sched.KindS, Label: "S k=0"},
			{TaskID: p1.ID, Worker: 1, Start: 8, End: 10, Kind: sched.KindP, Label: "P k=1"},
		},
	}
	return tr, g
}

func TestCriticalPathCALU2x2(t *testing.T) {
	tr, g := calu2x2Fixture()
	cp := AnalyzeCriticalPath(tr, g)
	if cp.Length != 10 {
		t.Fatalf("Length = %g, want 10 (P0+U0+S0+P1)", cp.Length)
	}
	if want := []int{0, 2, 3, 4}; !equalInts(cp.Path, want) {
		t.Fatalf("Path = %v, want P0,U0,S0,P1 = %v", cp.Path, want)
	}
	// Panel time on the path: P0 (3) + P1 (2); the only off-path task is L0.
	if cp.OnPath[sched.KindP] != 5 {
		t.Fatalf("OnPath[P] = %g, want 5", cp.OnPath[sched.KindP])
	}
	if cp.OffPath[sched.KindL] != 1 || len(cp.OffPath) != 1 {
		t.Fatalf("OffPath = %v, want only L=1", cp.OffPath)
	}
	if cp.Fraction != 1 {
		t.Fatalf("Fraction = %g, want 1", cp.Fraction)
	}
	var b strings.Builder
	cp.Report(&b)
	out := b.String()
	for _, want := range []string{"critical path:", "worker 0", "worker 1", "on-path"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Report missing %q:\n%s", want, out)
		}
	}
	labels := cp.PathLabels(g)
	if len(labels) != 4 || labels[0] != "P k=0(P)" {
		t.Fatalf("PathLabels = %v", labels)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := AnalyzeCriticalPath(&Trace{Workers: 2}, sched.NewGraph())
	if cp.Length != 0 || len(cp.Path) != 0 || cp.Fraction != 0 {
		t.Fatalf("empty analysis = %+v", cp)
	}
}

// TestPerfettoExport validates the exporter per the satellite: the output
// is well-formed JSON with exactly one complete ("X") event per span,
// microsecond timestamps, and per-worker thread metadata.
func TestPerfettoExport(t *testing.T) {
	tr, g := calu2x2Fixture()
	cp := AnalyzeCriticalPath(tr, g)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b, cp.OnPathSet()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var xEvents, metaEvents int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
			if e.Dur <= 0 {
				t.Fatalf("X event %q has non-positive dur %g", e.Name, e.Dur)
			}
		case "M":
			metaEvents++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if xEvents != len(tr.Spans) {
		t.Fatalf("%d X events for %d spans", xEvents, len(tr.Spans))
	}
	if metaEvents != 1+tr.Workers {
		t.Fatalf("%d metadata events, want %d", metaEvents, 1+tr.Workers)
	}
	// Spot-check the P0 span: 3s -> 3e6 µs, on the critical path.
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && e.Name == "P k=0" {
			if e.Ts != 0 || e.Dur != 3e6 {
				t.Fatalf("P0 ts/dur = %g/%g, want 0/3e6 µs", e.Ts, e.Dur)
			}
			if on, _ := e.Args["on_critical_path"].(bool); !on {
				t.Fatalf("P0 not marked on_critical_path: %v", e.Args)
			}
		}
		if e.Ph == "X" && e.Name == "L k=0" {
			if on, _ := e.Args["on_critical_path"].(bool); on {
				t.Fatal("L0 wrongly marked on_critical_path")
			}
		}
	}
}

// TestCriticalPathRealCALU is the acceptance-criteria check: on a real
// 4-worker CALU run the reported critical-path fraction and per-worker idle
// must be consistent (within 5%) with the summed trace spans.
func TestCriticalPathRealCALU(t *testing.T) {
	a := matrix.Random(200, 120, 5)
	res, err := core.CALU(context.Background(), a, core.Options{
		BlockSize: 20, PanelThreads: 2, Workers: 4, Trace: true, Lookahead: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := FromSched(res.Events, res.Graph, 4)
	cp := AnalyzeCriticalPath(tr, res.Graph)

	if cp.Length <= 0 || cp.Fraction <= 0 || cp.Fraction > 1+1e-9 {
		t.Fatalf("implausible critical path: length %g fraction %g", cp.Length, cp.Fraction)
	}
	// The chain's spans are temporally disjoint, so its length can never
	// exceed the observed makespan.
	if cp.Length > cp.Makespan*(1+1e-9) {
		t.Fatalf("Length %g > Makespan %g", cp.Length, cp.Makespan)
	}
	// Per-worker busy must equal the summed span durations exactly, and
	// busy+idle must reconstruct the makespan within 5%.
	busyFromSpans := make([]float64, 4)
	var total float64
	for _, sp := range tr.Spans {
		busyFromSpans[sp.Worker] += sp.End - sp.Start
		total += sp.End - sp.Start
	}
	for w := 0; w < 4; w++ {
		if math.Abs(cp.WorkerBusy[w]-busyFromSpans[w]) > 1e-12 {
			t.Fatalf("worker %d busy %g != summed spans %g", w, cp.WorkerBusy[w], busyFromSpans[w])
		}
		got := cp.WorkerBusy[w] + cp.WorkerIdle[w]
		if math.Abs(got-cp.Makespan) > 0.05*cp.Makespan {
			t.Fatalf("worker %d busy+idle %g deviates >5%% from makespan %g", w, got, cp.Makespan)
		}
	}
	// On-path + off-path time must account for every span second.
	var attributed float64
	for _, v := range cp.OnPath {
		attributed += v
	}
	for _, v := range cp.OffPath {
		attributed += v
	}
	if math.Abs(attributed-total) > 0.05*total {
		t.Fatalf("kind attribution %g deviates >5%% from span total %g", attributed, total)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
