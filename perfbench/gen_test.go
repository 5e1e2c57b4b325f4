package main

import (
	"slices"
	"testing"
	"time"
)

func TestSeededInputsRepeat(t *testing.T) {
	a, b := genMatrix(50, 20, 42, 3), genMatrix(50, 20, 42, 3)
	if !a.Equal(b) {
		t.Fatal("the same seed and index gave different matrices")
	}
	if genMatrix(50, 20, 43, 3).Equal(a) || genMatrix(50, 20, 42, 4).Equal(a) {
		t.Fatal("a different seed or index gave the same matrix")
	}
	if !slices.Equal(probe(20, 42, 3, 1), probe(20, 42, 3, 1)) || slices.Equal(probe(20, 42, 3, 0), probe(20, 42, 3, 1)) {
		t.Fatal("probe vectors are not determined by (seed, index, k)")
	}
}

func TestScheduleSeeded(t *testing.T) {
	const rate, d = 50, 20 * time.Second
	s1, s2 := schedule(7, rate, d), schedule(7, rate, d)
	if !slices.Equal(s1, s2) {
		t.Fatal("the same seed gave different schedules")
	}
	if slices.Equal(s1, schedule(8, rate, d)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(s1) != rate*20 {
		t.Fatalf("got %d requests, want %d", len(s1), rate*20)
	}
}

func TestScheduleMix(t *testing.T) {
	const rate, d = 50, 20 * time.Second
	for _, seed := range []int64{1, 2, 3} {
		s := schedule(seed, rate, d)
		var large, repeats, jsn, qr int
		seen := map[uint64]request{}
		for i, q := range s {
			if i > 0 && q.At < s[i-1].At || q.At < 0 || q.At >= d {
				t.Fatalf("seed %d: request %d at %v out of order or range", seed, i, q.At)
			}
			if q.Repeat {
				repeats++
				first, ok := seen[q.Matrix]
				first.At, first.Repeat = q.At, true
				if !ok || first != q {
					t.Fatalf("seed %d: repeat %d does not copy an earlier request", seed, i)
				}
				continue
			}
			seen[q.Matrix] = q
			if q.Rows == largeShape[0] {
				large++
				if q.JSON {
					t.Fatalf("seed %d: large request %d is JSON", seed, i)
				}
			} else if q.Rows > 256 || q.Cols > 256 || q.Rows < q.Cols {
				t.Fatalf("seed %d: request %d is %dx%d, not batch eligible", seed, i, q.Rows, q.Cols)
			}
			if q.JSON {
				jsn++
			}
			if q.QR {
				qr++
			}
		}
		n := len(s)
		distinct := n - repeats
		if repeats != 300 || large != 70 || qr != distinct/2 || jsn != 250*distinct/n {
			t.Errorf("seed %d: %d requests, %d repeats, %d large, %d QR, %d JSON among %d distinct",
				seed, n, repeats, large, qr, jsn, distinct)
		}
	}
}
