package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
)

func TestCALUCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := matrix.Random(60, 30, 1)
	orig := a.Clone()
	_, err := CALU(ctx, a, Options{BlockSize: 8, Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CALU = %v, want context.Canceled", err)
	}
	// Rejected before submission: not a single task ran, a is untouched.
	if !a.Equal(orig) {
		t.Fatal("pre-cancelled CALU modified the input matrix")
	}
}

func TestCAQRCtxDeadlineAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	a := matrix.Random(60, 30, 2)
	_, err := CAQR(ctx, a, Options{BlockSize: 8, Workers: 2}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CAQR = %v, want context.DeadlineExceeded", err)
	}
}

// TestCALUCtxWideMatrixPreCancelled covers the wide-matrix (m < n)
// recursion path: the context error must propagate out of the inner call.
func TestCALUCtxWideMatrixPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := matrix.Random(20, 50, 3)
	res, err := CALU(ctx, a, Options{BlockSize: 8, Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("wide CALU = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("wide CALU returned a partial result alongside the error")
	}
}

// TestCtxCancelledSharedPoolStaysUsable cancels one factorization on a
// shared pool and checks the pool still serves a fresh one correctly.
func TestCtxCancelledSharedPoolStaysUsable(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	opt := Options{BlockSize: 8, PanelThreads: 2, Workers: 2, Lookahead: true}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CALU(ctx, matrix.Random(80, 40, 4), opt, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CALU = %v, want context.Canceled", err)
	}

	a := matrix.Random(80, 40, 5)
	want := a.Clone()
	if _, err := CALU(context.Background(), want, opt, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := CALU(context.Background(), a, opt, pool); err != nil {
		t.Fatalf("pool unusable after cancelled submission: %v", err)
	}
	if !a.Equal(want) {
		t.Fatal("factors after a cancelled submission differ from a fresh run")
	}
}
