package main

import (
	"math"
	"testing"
)

// TestReconcile checks that the traced ledger accepts phases that account
// for the engine's wall time and fails when a phase is left out, when the
// phases overrun the wall time, or when the tasks ran longer than the
// workers could.
func TestReconcile(t *testing.T) {
	full := opLedger{wall: 0.400, build: 0.020, exec: 0.370, finish: 0.004, tasks: 0.700, capacity: 0.740}
	un, err := reconcile([]opLedger{full, full, full})
	if err != nil {
		t.Fatalf("a complete ledger failed: %v", err)
	}
	if want := 0.006 / 0.400; math.Abs(un-want) > 1e-12 {
		t.Errorf("unattributed share %v, want %v", un, want)
	}

	noExec := full
	noExec.exec = 0
	overrun := full
	overrun.wall = 0.300
	overbooked := full
	overbooked.tasks = 1.000
	for name, bad := range map[string]opLedger{"exec left out": noExec, "phases overrun wall": overrun, "tasks over capacity": overbooked} {
		if _, err := reconcile([]opLedger{bad, bad, bad}); err == nil {
			t.Errorf("%s: reconcile passed", name)
		}
	}
}
