package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
)

// runMerged executes the prepared requests' graphs as one submission on a
// shared pool, returning the submission error.
func runMerged(t *testing.T, workers int, graphs ...*sched.Graph) error {
	t.Helper()
	pool := sched.NewPool(workers)
	defer pool.Close()
	merged := sched.MergeGraphs(graphs...)
	sub, err := pool.Submit(merged, sched.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit merged graph: %v", err)
	}
	_, runErr := sub.Wait()
	return runErr
}

// TestPreparedBatchMatchesSolo factors several matrices through one merged
// submission and checks every factor bit-identical to the solo entry
// points: coalescing must not change a single bit.
func TestPreparedBatchMatchesSolo(t *testing.T) {
	opt := Options{BlockSize: 8, PanelThreads: 2, Workers: 2, Lookahead: true}

	luIn := []*matrix.Dense{
		matrix.Random(40, 24, 1),
		matrix.Random(31, 31, 2),
	}
	qrIn := matrix.Random(37, 16, 3)

	// Solo reference runs.
	luWant := make([]*matrix.Dense, len(luIn))
	var luWantRes []*LUResult
	for i, a := range luIn {
		ref := a.Clone()
		res, err := CALU(context.Background(), ref, opt, nil)
		if err != nil {
			t.Fatalf("solo CALU %d: %v", i, err)
		}
		luWant[i] = ref
		luWantRes = append(luWantRes, res)
	}
	qrWant := qrIn.Clone()
	if _, err := CAQR(context.Background(), qrWant, opt, nil); err != nil {
		t.Fatalf("solo CAQR: %v", err)
	}

	// Batched run: prepare all three, merge, execute once, finish each.
	luBatch := make([]*matrix.Dense, len(luIn))
	luPreps := make([]*PreparedLU, len(luIn))
	var graphs []*sched.Graph
	for i, a := range luIn {
		luBatch[i] = a.Clone()
		p, err := PrepareCALU(luBatch[i], opt)
		if err != nil {
			t.Fatalf("PrepareCALU %d: %v", i, err)
		}
		luPreps[i] = p
		graphs = append(graphs, p.Graph())
	}
	qrBatch := qrIn.Clone()
	qp, err := PrepareCAQR(qrBatch, opt)
	if err != nil {
		t.Fatalf("PrepareCAQR: %v", err)
	}
	graphs = append(graphs, qp.Graph())

	runErr := runMerged(t, 3, graphs...)
	for i, p := range luPreps {
		res, err := p.Finish(runErr)
		if err != nil {
			t.Fatalf("LU Finish %d: %v", i, err)
		}
		if !luBatch[i].Equal(luWant[i]) {
			t.Fatalf("batched LU %d factors differ from solo", i)
		}
		if len(res.Swaps) != len(luWantRes[i].Swaps) {
			t.Fatalf("batched LU %d swap count %d want %d", i, len(res.Swaps), len(luWantRes[i].Swaps))
		}
		for k := range res.Swaps {
			for j := range res.Swaps[k] {
				if res.Swaps[k][j] != luWantRes[i].Swaps[k][j] {
					t.Fatalf("batched LU %d swaps differ at iteration %d", i, k)
				}
			}
		}
	}
	if _, err := qp.Finish(runErr); err != nil {
		t.Fatalf("QR Finish: %v", err)
	}
	if !qrBatch.Equal(qrWant) {
		t.Fatal("batched QR factors differ from solo")
	}
}

// TestPreparedBatchSingularIsolated checks per-request failure isolation
// for input errors: a singular matrix in the batch fails its own Finish
// with ErrSingular while its batch-mates succeed untouched.
func TestPreparedBatchSingularIsolated(t *testing.T) {
	opt := Options{BlockSize: 4, PanelThreads: 2, Workers: 2, Lookahead: true}
	good := matrix.Random(20, 12, 7)
	goodWant := good.Clone()
	if _, err := CALU(context.Background(), goodWant, opt, nil); err != nil {
		t.Fatalf("solo CALU: %v", err)
	}
	sing := matrix.New(16, 16) // all zeros: rank deficient at panel 0

	goodBatch := good.Clone()
	pg, err := PrepareCALU(goodBatch, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PrepareCALU(sing, opt)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runMerged(t, 2, pg.Graph(), ps.Graph())
	if runErr != nil {
		t.Fatalf("merged run failed: %v", runErr)
	}
	if _, err := pg.Finish(nil); err != nil {
		t.Fatalf("good request failed: %v", err)
	}
	if !goodBatch.Equal(goodWant) {
		t.Fatal("good request's factors differ from solo after batched run")
	}
	if _, err := ps.Finish(nil); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular request Finish = %v, want ErrSingular", err)
	}
}

// TestPrepareRejects covers the validation surface: nil/empty/wide inputs
// and non-finite entries are rejected before any graph is built.
func TestPrepareRejects(t *testing.T) {
	opt := Options{BlockSize: 4, Workers: 1}
	if _, err := PrepareCALU(nil, opt); !errors.Is(err, ErrShape) {
		t.Fatalf("PrepareCALU(nil) = %v, want ErrShape", err)
	}
	if _, err := PrepareCAQR(matrix.New(0, 0), opt); !errors.Is(err, ErrShape) {
		t.Fatalf("PrepareCAQR(empty) = %v, want ErrShape", err)
	}
	wide := matrix.Random(4, 9, 1)
	if _, err := PrepareCALU(wide, opt); !errors.Is(err, ErrShape) {
		t.Fatalf("PrepareCALU(wide) = %v, want ErrShape", err)
	}
	if _, err := PrepareCAQR(wide, opt); !errors.Is(err, ErrShape) {
		t.Fatalf("PrepareCAQR(wide) = %v, want ErrShape", err)
	}
	bad := matrix.Random(8, 8, 2)
	bad.Set(3, 4, math.NaN())
	if _, err := PrepareCALU(bad, opt); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("PrepareCALU(NaN) = %v, want ErrNonFinite", err)
	}
	if _, err := PrepareCAQR(bad, opt); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("PrepareCAQR(NaN) = %v, want ErrNonFinite", err)
	}
}
