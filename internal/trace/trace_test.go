package trace

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simsched"
)

func sampleTrace() *Trace {
	return &Trace{
		Workers:  2,
		Makespan: 10,
		Spans: []Span{
			{Worker: 0, Start: 0, End: 4, Kind: sched.KindP, Label: "P"},
			{Worker: 0, Start: 4, End: 10, Kind: sched.KindS, Label: "S"},
			{Worker: 1, Start: 2, End: 7, Kind: sched.KindL, Label: "L"},
		},
	}
}

func TestStats(t *testing.T) {
	s := sampleTrace().Stats()
	// Total core time = 20; P=4, S=6, L=5, idle=5.
	if math.Abs(s.BusyByKind[sched.KindP]-0.2) > 1e-12 {
		t.Fatalf("P fraction = %v", s.BusyByKind[sched.KindP])
	}
	if math.Abs(s.BusyByKind[sched.KindS]-0.3) > 1e-12 {
		t.Fatalf("S fraction = %v", s.BusyByKind[sched.KindS])
	}
	if math.Abs(s.Idle-0.25) > 1e-12 {
		t.Fatalf("idle = %v", s.Idle)
	}
}

func TestStatsEmpty(t *testing.T) {
	tr := &Trace{Workers: 2}
	if s := tr.Stats(); s.Idle != 1 {
		t.Fatalf("empty trace idle = %v", s.Idle)
	}
}

func TestGanttRendering(t *testing.T) {
	var b strings.Builder
	sampleTrace().Gantt(&b, 20)
	out := b.String()
	if !strings.Contains(out, "core  0") || !strings.Contains(out, "core  1") {
		t.Fatalf("missing worker rows:\n%s", out)
	}
	// Worker 0 starts with P, ends with S; worker 1 has leading idle.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "P") || !strings.Contains(lines[0], "S") {
		t.Fatalf("row 0 = %q", lines[0])
	}
	if !strings.HasPrefix(strings.SplitN(lines[1], "|", 2)[1], "....") {
		t.Fatalf("row 1 should start idle: %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	sampleTrace().WriteCSV(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if lines[0] != "worker,start,end,kind,label" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestFromSched(t *testing.T) {
	g := sched.NewGraph()
	g.Add(&sched.Task{Kind: sched.KindP, Label: "p"})
	g.Add(&sched.Task{Kind: sched.KindS, Label: "s"})
	events := []sched.Event{
		{TaskID: 0, Worker: 0, Start: 0, End: time.Millisecond},
		{TaskID: 1, Worker: 1, Start: time.Millisecond, End: 3 * time.Millisecond},
	}
	tr := FromSched(events, g, 2)
	if len(tr.Spans) != 2 || math.Abs(tr.Makespan-0.003) > 1e-12 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Spans[0].Kind != sched.KindP {
		t.Fatalf("span kind = %v", tr.Spans[0].Kind)
	}
}

// TestFig3Fig4IdleContrast reproduces the paper's Figures 3-4 effect in
// miniature: with Tr=1 the panel serializes and idle time is substantial;
// with Tr=cores the idle fraction drops sharply.
func TestFig3Fig4IdleContrast(t *testing.T) {
	mach := machine.Intel8()
	build := func(tr int) *Trace {
		g := core.BuildCALUGraph(100000, 1000, core.Options{
			BlockSize: 100, PanelThreads: tr, Lookahead: true,
		})
		res := simsched.Run(g, mach)
		return FromSim(res.Events, g, mach.Cores)
	}
	idle1 := build(1).Stats().Idle
	idle8 := build(8).Stats().Idle
	if idle8 >= idle1 {
		t.Fatalf("Tr=8 idle %.3f not below Tr=1 idle %.3f", idle8, idle1)
	}
	if idle1 < 0.2 {
		t.Fatalf("Tr=1 idle %.3f suspiciously low: panel should serialize", idle1)
	}
	if idle8 > 0.35 {
		t.Fatalf("Tr=8 idle %.3f too high: cores should stay busy", idle8)
	}
}

// Real-execution trace should also render end to end.
func TestRealTraceEndToEnd(t *testing.T) {
	a := matrix.Random(60, 60, 3)
	res, err := core.CALU(context.Background(), a, core.Options{BlockSize: 10, PanelThreads: 2, Workers: 2, Trace: true, Lookahead: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := FromSched(res.Events, res.Graph, 2)
	if len(tr.Spans) != res.Graph.Len() {
		t.Fatalf("%d spans for %d tasks", len(tr.Spans), res.Graph.Len())
	}
	var b strings.Builder
	tr.Gantt(&b, 40)
	if !strings.Contains(b.String(), "core") {
		t.Fatal("gantt empty")
	}
}
