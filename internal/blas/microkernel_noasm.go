//go:build !amd64

package blas

// Non-amd64 builds have no assembly microkernel: useAsmKernel stays false
// and dispatch always takes the generic path.

const asmKernelName = "none"

// probeAsmKernel: no assembly kernel exists off amd64.
func probeAsmKernel() bool { return false }

// gemmKernelAsm is never reached when useAsmKernel is false; it exists so
// the dispatch in microkernel.go compiles on every architecture.
func gemmKernelAsm(kc int, a, b, c []float64, ldc int) {
	gemmKernelGeneric(kc, a, b, c, ldc)
}

// trsmSolveAsm is never reached when useAsmKernel is false; like
// gemmKernelAsm it exists so the dispatch compiles everywhere.
func trsmSolveAsm(t []float64, tb, ldt int, d, x []float64, xb, ldx int) {
	trsmSolveGeneric(gemmNR, t, tb, ldt, d, x, xb, ldx)
}
