package main

import (
	"testing"

	"repro/factor"
)

// TestChecksCatchPerturbedFactors runs each check on a correct
// factorization, then on one factor entry perturbed far below the size of
// the entries, and requires the first to pass and the second to fail.
func TestChecksCatchPerturbedFactors(t *testing.T) {
	const m, n, seed = 300, 40, 7
	opt := factor.Options{BlockSize: 16, PanelThreads: 2, Workers: 2}

	a := genMatrix(m, n, seed, 0)
	w := a.Clone()
	lu, err := factor.LU(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	perm := lu.PermutationVector()
	if r := checkLU(a, w, perm, seed, 0); !r.ok() {
		t.Fatalf("correct LU fails its check: %+v", r)
	}
	run := &runner{metrics: map[string]metric{}}
	for _, pos := range [][2]int{{5, 3}, {200, 10}, {39, 39}} { // U, L, U diagonal
		bad := w.Clone()
		bad.Set(pos[0], pos[1], bad.At(pos[0], pos[1])+1e-9)
		run.checked("perturbed LU", checkAll(checkLU(a, bad, perm, seed, 0)))
	}
	if run.failed != 3 || run.wrong != 3 {
		t.Errorf("3 perturbed LU factors counted as %d failed, %d wrong", run.failed, run.wrong)
	}
	swapped := append([]int(nil), perm...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if r := checkLU(a, w, swapped, seed, 0); r.ok() {
		t.Errorf("LU with a wrong permutation passes: %+v", r)
	}

	q := a.Clone()
	qr, err := factor.QR(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	back, orth := checkQR(a, qr, seed, 1)
	if err := checkAll(back, orth); err != nil {
		t.Fatalf("correct QR fails its check: %v", err)
	}
	r := qr.R()
	if g := checkGram(a, r, seed, 1); !g.ok() {
		t.Fatalf("correct R fails the Gram check: %+v", g)
	}

	// A perturbed R entry breaks A = QR and the Gram identity.
	q.Set(3, 20, q.At(3, 20)+1e-9)
	if back, _ := checkQR(a, qr, seed, 1); back.ok() {
		t.Errorf("QR with perturbed R passes the backward check: %+v", back)
	}
	rb := r.Clone()
	rb.Set(3, 20, rb.At(3, 20)+1e-9)
	if g := checkGram(a, rb, seed, 1); g.ok() {
		t.Errorf("perturbed R passes the Gram check: %+v", g)
	}
	// A perturbed Householder vector entry breaks orthogonality.
	q.Set(3, 20, q.At(3, 20)-1e-9)
	q.Set(200, 5, q.At(200, 5)+1e-6) // below leaf 2's diagonal
	if _, orth := checkQR(a, qr, seed, 1); orth.ok() {
		t.Errorf("QR with a perturbed reflector passes the orthogonality check: %+v", orth)
	}
}
