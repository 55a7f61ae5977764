#include "textflag.h"

// AVX2 forms of the rank-vector primitives (vec_amd64.go). Each touches
// the first min(len...) elements only and does, per element, exactly the
// scalar code's work: one VMULPD lane then one VADDPD lane, never an FMA,
// so every result is bit-identical to the Go loops. Sixteen elements per
// iteration, then four, then a scalar MULSD/ADDSD tail after VZEROUPPER
// (no AVX-to-SSE transition penalty in the tail or in the caller).

// func addScaledAVX2(dst []float64, s float64, src []float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVSD   s+24(FP), X0
	MOVQ    src_base+32(FP), SI
	MOVQ    src_len+40(FP), AX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	VBROADCASTSD X0, Y0
	CMPQ    CX, $16
	JLT     as4

as16:
	VMULPD  0(SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VADDPD  0(DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     as16

as4:
	CMPQ    CX, $4
	JLT     asTail

as4loop:
	VMULPD  0(SI), Y0, Y1
	VADDPD  0(DI), Y1, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     as4loop

asTail:
	VZEROUPPER
	TESTQ   CX, CX
	JZ      asDone

as1:
	MOVSD   0(SI), X1
	MULSD   X0, X1
	ADDSD   0(DI), X1
	MOVSD   X1, 0(DI)
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     as1

asDone:
	RET

// func hadamardAccumAVX2(dst, a, b []float64)
TEXT ·hadamardAccumAVX2(SB), NOSPLIT, $0-72
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    a_base+24(FP), SI
	MOVQ    a_len+32(FP), AX
	MOVQ    b_base+48(FP), DX
	MOVQ    b_len+56(FP), BX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	CMPQ    BX, CX
	CMOVQLT BX, CX
	CMPQ    CX, $16
	JLT     ha4

ha16:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMULPD  0(DX), Y0, Y0
	VMULPD  32(DX), Y1, Y1
	VMULPD  64(DX), Y2, Y2
	VMULPD  96(DX), Y3, Y3
	VADDPD  0(DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     ha16

ha4:
	CMPQ    CX, $4
	JLT     haTail

ha4loop:
	VMOVUPD 0(SI), Y0
	VMULPD  0(DX), Y0, Y0
	VADDPD  0(DI), Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     ha4loop

haTail:
	VZEROUPPER
	TESTQ   CX, CX
	JZ      haDone

ha1:
	MOVSD   0(SI), X0
	MULSD   0(DX), X0
	ADDSD   0(DI), X0
	MOVSD   X0, 0(DI)
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, DI
	DECQ    CX
	JNZ     ha1

haDone:
	RET

// func hadamardIntoAVX2(dst, a, b []float64)
TEXT ·hadamardIntoAVX2(SB), NOSPLIT, $0-72
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    a_base+24(FP), SI
	MOVQ    a_len+32(FP), AX
	MOVQ    b_base+48(FP), DX
	MOVQ    b_len+56(FP), BX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	CMPQ    BX, CX
	CMOVQLT BX, CX
	CMPQ    CX, $16
	JLT     hi4

hi16:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMULPD  0(DX), Y0, Y0
	VMULPD  32(DX), Y1, Y1
	VMULPD  64(DX), Y2, Y2
	VMULPD  96(DX), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     hi16

hi4:
	CMPQ    CX, $4
	JLT     hiTail

hi4loop:
	VMOVUPD 0(SI), Y0
	VMULPD  0(DX), Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     hi4loop

hiTail:
	VZEROUPPER
	TESTQ   CX, CX
	JZ      hiDone

hi1:
	MOVSD   0(SI), X0
	MULSD   0(DX), X0
	MOVSD   X0, 0(DI)
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, DI
	DECQ    CX
	JNZ     hi1

hiDone:
	RET
