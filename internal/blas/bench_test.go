package blas

import (
	"testing"

	"repro/internal/matrix"
)

// Kernel micro-benchmarks: these are the rates the machine models
// abstract, so having them next to the kernels keeps the calibration
// honest (see also cmd/calibrate).

func benchGemm(b *testing.B, m, n, k int) {
	b.Helper()
	x := matrix.Random(m, k, 1)
	y := matrix.Random(k, n, 2)
	c := matrix.New(m, n)
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(NoTrans, NoTrans, 1, x, y, 0, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDgemmSquare256(b *testing.B)  { benchGemm(b, 256, 256, 256) }
func BenchmarkDgemmSquare512(b *testing.B)  { benchGemm(b, 512, 512, 512) }
func BenchmarkDgemmTallUpdate(b *testing.B) { benchGemm(b, 4096, 100, 100) }
func BenchmarkDgemmWideK(b *testing.B)      { benchGemm(b, 128, 128, 2048) }

func BenchmarkDtrsmRightUpper(b *testing.B) {
	// The CALU task-L kernel shape: tall block against a b x b triangle.
	tri := matrix.Random(100, 100, 3)
	for i := 0; i < 100; i++ {
		tri.Set(i, i, tri.At(i, i)+4)
	}
	rhs := matrix.Random(4096, 100, 4)
	flops := float64(4096) * 100 * 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := rhs.Clone()
		b.StartTimer()
		Trsm(Right, Upper, NoTrans, NonUnit, 1, tri, work)
		b.StopTimer()
		_ = work
		b.StartTimer()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDtrmmLeftLower(b *testing.B) {
	// The Larfb shape W = V1^T W: a b x b unit lower triangle against a
	// b x b block of the trailing matrix.
	// W is restored before every multiply (inside the timed loop) so the
	// values neither overflow nor decay into subnormals.
	tri := matrix.Random(100, 100, 3)
	src := matrix.Random(100, 100, 4)
	w := src.Clone()
	flops := float64(100) * 100 * 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w.Data, src.Data)
		Trmm(Left, Lower, Trans, Unit, 1, tri, w)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDgemv(b *testing.B) {
	a := matrix.Random(2048, 2048, 5)
	x := matrix.Random(2048, 1, 6).Col(0)
	y := make([]float64, 2048)
	flops := 2 * float64(2048) * 2048
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemv(NoTrans, 2048, 2048, 1, a.Data, a.Stride, x, 1, 0, y, 1)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDger(b *testing.B) {
	a := matrix.New(2048, 512)
	x := matrix.Random(2048, 1, 7).Col(0)
	y := matrix.Random(512, 1, 8).Col(0)
	flops := 2 * float64(2048) * 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dger(2048, 512, 1.0001, x, 1, y, 1, a.Data, a.Stride)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}
