// AVX2+FMA 8x4 microkernel and CPU feature probes for the packed Dgemm.
// See doc/KERNELS.md for the packed strip layout the kernel consumes.

#include "textflag.h"

// func gemmKernel8x4Asm(kc int, a, b, c *float64, ldc int)
//
// Accumulates C[i + j*ldc] += sum_p a[p*8+i] * b[p*4+j] for the full 8x4
// register tile. a is a packed MR-strip (8 doubles per depth step,
// contiguous), b a packed NR-strip (4 doubles per depth step, contiguous),
// c column-major with leading dimension ldc (in elements).
//
// Register plan: Y0..Y7 are the eight 4-wide accumulators (two YMM per C
// column), Y8/Y9 (and Y14/Y15 in the unrolled half) hold the current A
// column pair, Y10..Y13 the broadcast B values. The k-loop is unrolled by
// two so each accumulator's FMA chain has a full latency window between
// updates.
TEXT ·gemmKernel8x4Asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX                // ldc in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	ANDQ $1, AX                // odd leftover iteration?
	SHRQ $1, CX                // k-loop runs in pairs
	JZ   tail

loop2:
	// Rank-1 update p.
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VBROADCASTSD 16(BX), Y12
	VBROADCASTSD 24(BX), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

	// Rank-1 update p+1.
	VMOVUPD      64(SI), Y14
	VMOVUPD      96(SI), Y15
	VBROADCASTSD 32(BX), Y10
	VBROADCASTSD 40(BX), Y11
	VBROADCASTSD 48(BX), Y12
	VBROADCASTSD 56(BX), Y13
	VFMADD231PD  Y14, Y10, Y0
	VFMADD231PD  Y15, Y10, Y1
	VFMADD231PD  Y14, Y11, Y2
	VFMADD231PD  Y15, Y11, Y3
	VFMADD231PD  Y14, Y12, Y4
	VFMADD231PD  Y15, Y12, Y5
	VFMADD231PD  Y14, Y13, Y6
	VFMADD231PD  Y15, Y13, Y7

	ADDQ $128, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  loop2

tail:
	TESTQ AX, AX
	JZ    write
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VBROADCASTSD 16(BX), Y12
	VBROADCASTSD 24(BX), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

write:
	// C += accumulators, one column (two YMM) at a time.
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y2, Y2
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y4, Y4
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y6, Y6
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func trsmSolve8x4Asm(t *float64, ldt int, d, x *float64, ldx int)
//
// Solves X*D = T in place for the 8x4 tile whose local column c (8
// contiguous doubles) starts at t + c*ldt, D upper triangular in local
// order with d[c*4+k] = D(k, c) and d[c*4+c] = 1/D(c, c), and stores -X
// column c at x + c*ldx. ldt and ldx are signed element strides.
//
// Register plan: Y0..Y7 hold the tile (two YMM per column), Y8 the
// broadcast coefficient, Y9 zero for the negation.
TEXT ·trsmSolve8x4Asm(SB), NOSPLIT, $0-40
	MOVQ t+0(FP), DI
	MOVQ ldt+8(FP), DX
	SHLQ $3, DX                // ldt in bytes
	MOVQ d+16(FP), BX
	MOVQ x+24(FP), SI
	MOVQ ldx+32(FP), CX
	SHLQ $3, CX                // ldx in bytes

	MOVQ    DI, R8
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	ADDQ    DX, R8
	VMOVUPD (R8), Y2
	VMOVUPD 32(R8), Y3
	ADDQ    DX, R8
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	ADDQ    DX, R8
	VMOVUPD (R8), Y6
	VMOVUPD 32(R8), Y7

	// x0 = t0 * d[0]
	VBROADCASTSD (BX), Y8
	VMULPD       Y8, Y0, Y0
	VMULPD       Y8, Y1, Y1

	// x1 = (t1 - x0*d[4]) * d[5]
	VBROADCASTSD 32(BX), Y8
	VFNMADD231PD Y8, Y0, Y2
	VFNMADD231PD Y8, Y1, Y3
	VBROADCASTSD 40(BX), Y8
	VMULPD       Y8, Y2, Y2
	VMULPD       Y8, Y3, Y3

	// x2 = (t2 - x0*d[8] - x1*d[9]) * d[10]
	VBROADCASTSD 64(BX), Y8
	VFNMADD231PD Y8, Y0, Y4
	VFNMADD231PD Y8, Y1, Y5
	VBROADCASTSD 72(BX), Y8
	VFNMADD231PD Y8, Y2, Y4
	VFNMADD231PD Y8, Y3, Y5
	VBROADCASTSD 80(BX), Y8
	VMULPD       Y8, Y4, Y4
	VMULPD       Y8, Y5, Y5

	// x3 = (t3 - x0*d[12] - x1*d[13] - x2*d[14]) * d[15]
	VBROADCASTSD 96(BX), Y8
	VFNMADD231PD Y8, Y0, Y6
	VFNMADD231PD Y8, Y1, Y7
	VBROADCASTSD 104(BX), Y8
	VFNMADD231PD Y8, Y2, Y6
	VFNMADD231PD Y8, Y3, Y7
	VBROADCASTSD 112(BX), Y8
	VFNMADD231PD Y8, Y4, Y6
	VFNMADD231PD Y8, Y5, Y7
	VBROADCASTSD 120(BX), Y8
	VMULPD       Y8, Y6, Y6
	VMULPD       Y8, Y7, Y7

	// Write X back over T and -X to the pack, one column at a time.
	VXORPD  Y9, Y9, Y9
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VSUBPD  Y0, Y9, Y0
	VSUBPD  Y1, Y9, Y1
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	ADDQ    DX, DI
	ADDQ    CX, SI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	VSUBPD  Y2, Y9, Y2
	VSUBPD  Y3, Y9, Y3
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	ADDQ    DX, DI
	ADDQ    CX, SI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VSUBPD  Y4, Y9, Y4
	VSUBPD  Y5, Y9, Y5
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	ADDQ    DX, DI
	ADDQ    CX, SI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VSUBPD  Y6, Y9, Y6
	VSUBPD  Y7, Y9, Y7
	VMOVUPD Y6, (SI)
	VMOVUPD Y7, 32(SI)
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
