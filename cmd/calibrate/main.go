// Command calibrate measures the host's actual kernel rates and scheduling
// overhead, and prints a machine.Model literal for it. Useful when you want
// the virtual-time experiments (cabench's modeled mode) to predict *this*
// machine instead of the paper's 2009 testbeds.
//
//	go run ./cmd/calibrate
//	go run ./cmd/calibrate -tune          # grid-search MC/KC/NC for this host
//	go run ./cmd/calibrate -tune -n 768   # tune at a different problem size
//
// -tune sweeps the packed Dgemm's cache block sizes (see doc/KERNELS.md)
// and prints the best (MC, KC, NC) triple together with the
// blas.SetBlockSizes call that applies it.
package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func main() {
	tune := flag.Bool("tune", false, "grid-search packed-Dgemm block sizes (MC/KC/NC) and exit")
	tuneN := flag.Int("n", 512, "with -tune: square problem size to tune at")
	flag.Parse()

	if *tune {
		tuneBlocks(*tuneN)
		return
	}

	fmt.Println("measuring kernel rates (a few seconds)...")

	blas3 := rateGemm(384)
	recStream := rateRGETF2(200000, 64)
	recCache := rateRGETF2(2000, 64)
	blas2Stream := rateGETF2(200000, 64)
	blas2Cache := rateGETF2(2000, 64)
	overhead := schedOverhead()

	fmt.Println()
	fmt.Printf("dgemm (384^3):                 %8.2f GFlop/s\n", blas3/1e9)
	fmt.Printf("rgetf2 200000x64 (streaming):  %8.2f GFlop/s\n", recStream/1e9)
	fmt.Printf("rgetf2 2000x64 (cache):        %8.2f GFlop/s\n", recCache/1e9)
	fmt.Printf("dgetf2 200000x64 (streaming):  %8.2f GFlop/s\n", blas2Stream/1e9)
	fmt.Printf("dgetf2 2000x64 (cache):        %8.2f GFlop/s\n", blas2Cache/1e9)
	fmt.Printf("scheduler overhead:            %8.2f us/task\n", overhead*1e6)

	fmt.Println("\nmachine.Model literal for this host:")
	fmt.Printf(`
	&machine.Model{
		Name:             %q,
		Cores:            %d,
		RateBLAS3:        %.3g,
		RateRecursive:    %.3g,
		RateBLAS2:        %.3g,
		RateSmall:        %.3g,
		MemPorts:         2,
		TaskOverhead:     %.3g,
		GranularityFlops: 1e6,
		CacheRows:        4000,
		CacheRecursive:   %.3g,
		CacheBLAS2:       %.3g,
	}
`, "host: "+runtime.GOARCH, runtime.NumCPU(),
		blas3, recStream, blas2Stream, blas2Stream*2,
		overhead, recCache, blas2Cache)
}

// tuneBlocks grid-searches the packed Dgemm's cache block sizes at n^3 and
// prints the winner. The grid brackets the L2/L3-sized defaults: MC rows of
// packed A (MC*KC*8 bytes should sit in L2), KC depth (KC*NR*8-byte B
// strips must stay L1-resident), NC columns of packed B (KC*NC*8 in L3).
func tuneBlocks(n int) {
	mcGrid := []int{64, 96, 128, 192, 256}
	kcGrid := []int{128, 192, 256, 384, 512}
	ncGrid := []int{1024, 2048, 4096}
	origMC, origKC, origNC := blas.BlockSizes()
	defer func() {
		if err := blas.SetBlockSizes(origMC, origKC, origNC); err != nil {
			panic(err)
		}
	}()
	fmt.Printf("tuning packed Dgemm block sizes at n=%d (kernel %s)...\n", n, blas.KernelName())
	bestRate := 0.0
	bestMC, bestKC, bestNC := origMC, origKC, origNC
	for _, nc := range ncGrid {
		for _, kc := range kcGrid {
			for _, mc := range mcGrid {
				if err := blas.SetBlockSizes(mc, kc, nc); err != nil {
					panic(err)
				}
				r := rateGemm(n)
				fmt.Printf("  MC=%-4d KC=%-4d NC=%-5d %7.2f GFlop/s\n", mc, kc, nc, r/1e9)
				if r > bestRate {
					bestRate, bestMC, bestKC, bestNC = r, mc, kc, nc
				}
			}
		}
	}
	fmt.Printf("\nbest: MC=%d KC=%d NC=%d at %.2f GFlop/s\n", bestMC, bestKC, bestNC, bestRate/1e9)
	fmt.Printf("apply with:\n\n\tblas.SetBlockSizes(%d, %d, %d)\n", bestMC, bestKC, bestNC)
}

// rateGemm returns achieved flops/s of the blocked Dgemm at size n^3.
func rateGemm(n int) float64 {
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	c := matrix.New(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	// Warm up once, then time the best of three.
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
		if r := flops / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

func rateRGETF2(m, n int) float64 {
	orig := matrix.Random(m, n, 3)
	flops := baseline.LUFlops(m, n)
	best := 0.0
	for i := 0; i < 3; i++ {
		a := orig.Clone()
		ipiv := make([]int, n)
		start := time.Now()
		if err := lapack.RGETF2(a, ipiv); err != nil {
			panic(err)
		}
		if r := flops / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

func rateGETF2(m, n int) float64 {
	orig := matrix.Random(m, n, 4)
	flops := baseline.LUFlops(m, n)
	best := 0.0
	for i := 0; i < 3; i++ {
		a := orig.Clone()
		ipiv := make([]int, n)
		start := time.Now()
		if err := lapack.GETF2(a, ipiv); err != nil {
			panic(err)
		}
		if r := flops / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

// schedOverhead times the dynamic scheduler on a graph of empty tasks.
func schedOverhead() float64 {
	const n = 20000
	g := sched.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(&sched.Task{Run: func() {}})
	}
	start := time.Now()
	if _, err := sched.Run(context.Background(), g, runtime.NumCPU(), sched.SubmitOptions{}); err != nil {
		panic(err)
	}
	return time.Since(start).Seconds() / n
}
