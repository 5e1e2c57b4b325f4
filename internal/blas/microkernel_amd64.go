//go:build amd64

package blas

// AVX2+FMA microkernel selection for amd64. The assembly kernel needs AVX2
// (VBROADCASTSD/VADDPD on YMM), FMA3 and OS support for saving YMM state;
// all three are probed once at init via CPUID/XGETBV and the dispatch falls
// back to the generic Go kernel when anything is missing.

const asmKernelName = "amd64-avx2-fma-8x4"

// probeAsmKernel enables the assembly kernel when the host supports it.
func probeAsmKernel() bool { return hasAVX2FMA() }

// hasAVX2FMA reports whether the CPU and OS support the assembly kernel:
// CPUID.1:ECX must advertise FMA, OSXSAVE and AVX, XCR0 must have the XMM
// and YMM state bits enabled by the OS, and CPUID.7.0:EBX must advertise
// AVX2.
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// gemmKernel8x4Asm accumulates the 8x4 tile C[i + j*ldc] += sum_p
// a[p*8+i]*b[p*4+j] with AVX2 FMA instructions. kc must be >= 1 and c must
// address a full 8x4 tile (the macrokernel guarantees both).
//
//go:noescape
func gemmKernel8x4Asm(kc int, a, b, c *float64, ldc int)

// gemmKernelAsm adapts the slice-based dispatch to the pointer-based
// assembly routine.
func gemmKernelAsm(kc int, a, b, c []float64, ldc int) {
	gemmKernel8x4Asm(kc, &a[0], &b[0], &c[0], ldc)
}

// trsmSolve8x4Asm is trsmSolve for a full NR-wide block with AVX2 FMA
// instructions: the four local columns of the 8-lane tile start at t and
// step ldt elements, their -X stores start at x and step ldx; d is the
// 4x4 local diagonal block.
//
//go:noescape
func trsmSolve8x4Asm(t *float64, ldt int, d, x *float64, ldx int)

// trsmSolveAsm adapts the slice-based dispatch to the pointer-based
// assembly routine.
func trsmSolveAsm(t []float64, tb, ldt int, d, x []float64, xb, ldx int) {
	trsmSolve8x4Asm(&t[tb], ldt, &d[0], &x[xb], ldx)
}
