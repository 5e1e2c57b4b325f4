package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/factor"
)

// Inputs are derived from the run's --seed only. Every matrix and every
// schedule entry gets its own stream, keyed by (seed, purpose, index), so
// the same seed reproduces the same inputs whatever order they are made in.

// Stream purposes.
const (
	streamMatrix   = 1
	streamSchedule = 2
	streamProbe    = 3
)

func rng(seed int64, purpose, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^purpose<<56, index))
}

// fillMatrix overwrites a with uniform entries in [-1, 1) from the
// (seed, index) matrix stream.
func fillMatrix(a *factor.Matrix, seed int64, index uint64) {
	r := rng(seed, streamMatrix, index)
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
}

// genMatrix allocates and fills an r x c input.
func genMatrix(r, c int, seed int64, index uint64) *factor.Matrix {
	a := factor.NewMatrix(r, c)
	fillMatrix(a, seed, index)
	return a
}

// Service request mix. The constants are the workload definition: every
// schedule has exactly these proportions, and the seed chooses only which
// matrices, in which order, at which times. Fixed proportions keep runs on
// different seeds comparable.
const (
	largeShare  = 0.10 // 1000x200 requests, too big for the batcher
	repeatShare = 0.30 // exact repeats of a recent request (cache hits)
	jsonShare   = 0.25 // binary:JSON is 3:1 over all requests
	repeatFrom  = 24   // repeats pick among this many most recent distinct requests
)

// smallShapes are the batch-eligible request shapes (m >= n, both <= 256).
var smallShapes = [][2]int{
	{32, 32}, {48, 32}, {64, 64}, {96, 48}, {128, 64},
	{128, 128}, {160, 96}, {192, 128}, {256, 64}, {256, 128},
}

// largeShape bypasses the batcher (dimension > 256): the engine-reuse
// shape that allocates most per request. Large requests are always binary:
// a handful of multi-megabyte JSON bodies would otherwise decide the tail
// latency on their own.
var largeShape = [2]int{1000, 200}

// request is one scheduled service request.
type request struct {
	At     time.Duration // send time, from the start of the stream
	QR     bool          // QR, else LU
	JSON   bool          // JSON encoding, else binary
	Rows   int
	Cols   int
	Matrix uint64 // index of the matrix stream that fills the input
	Repeat bool   // an exact repeat of an earlier request
}

// count is round(share * n).
func count(share float64, n int) int { return int(math.Round(share * float64(n))) }

// schedule draws a Poisson arrival stream at rate requests per second over
// d: round(rate*d) arrivals at uniform random times, which is a Poisson
// process given its count. The distinct requests split exactly into the
// mix above (LU and QR alternating within every shape, small shapes in
// equal numbers) and are shuffled; repeats copy one of the repeatFrom most
// recent distinct requests.
func schedule(seed int64, rate float64, d time.Duration) []request {
	r := rng(seed, streamSchedule, 0)
	n := count(rate*d.Seconds(), 1)
	if n == 0 {
		return nil
	}
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Int64N(int64(d)))
	}
	slices.Sort(at)

	repeats := min(count(repeatShare, n), n-1)
	distinct := make([]request, 0, n-repeats)
	large := count(largeShare, n-repeats)
	jsonN := count(jsonShare, n) * (n - repeats) / n
	for i := 0; i < n-repeats; i++ {
		q := request{QR: i%2 == 1}
		if i < large {
			q.Rows, q.Cols = largeShape[0], largeShape[1]
		} else {
			s := smallShapes[(i-large)/2%len(smallShapes)]
			q.Rows, q.Cols = s[0], s[1]
			q.JSON = i-large < jsonN
		}
		distinct = append(distinct, q)
	}
	r.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	isRepeat := make([]bool, n)
	for i := 0; i < repeats; i++ {
		isRepeat[1+i] = true // the first request is always distinct
	}
	r.Shuffle(n-1, func(i, j int) { isRepeat[1+i], isRepeat[1+j] = isRepeat[1+j], isRepeat[1+i] })

	out := make([]request, n)
	var recent []request
	next := 0
	for i := range out {
		if isRepeat[i] {
			q := recent[r.IntN(len(recent))]
			q.Repeat = true
			q.At = at[i]
			out[i] = q
			continue
		}
		q := distinct[next]
		q.Matrix, q.At = uint64(next), at[i]
		next++
		out[i] = q
		recent = append(recent, q)
		if len(recent) > repeatFrom {
			recent = recent[1:]
		}
	}
	return out
}

// probe returns a length-n Gaussian probe vector for check k of operation
// index.
func probe(n int, seed int64, index uint64, k int) []float64 {
	r := rng(seed, streamProbe, index*8+uint64(k))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}
