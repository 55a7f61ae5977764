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

// The fiber primitives (vec_amd64.go) take a run of sibling level d-3
// nodes, each with its run of level d-2 fibers; the one-level forms pass
// one node whose window is their whole run. They keep each fiber's sum in
// YMM registers, one column block at a time: 32 columns, then 16, then 4,
// then a VEX-encoded scalar tail, with one VZEROUPPER on the way out.
// Within a block the leaves run in order, so every element sees the Go
// forms' IEEE operations in the Go forms' order: a VMULPD lane then a
// VADDPD lane, never an FMA, starting from +0. Columns do not interact, so
// the blocking changes no bit. Each node, fiber and leaf id is
// sign-extended and checked against its row count with one unsigned
// compare (a negative id fails it too) before its row is read; row
// offsets are 64-bit products.
//
// Node n's fibers are [nptr[n], nptr[n+1]) clamped to [cmin, cmax) and
// fiber c's leaves [ptr[c], ptr[c+1]) clamped to [kmin, kmax), neither
// ever reversed. The caller guarantees len(nptr) > len(nids), 0 <= cmin
// <= cmax <= len(mids) < len(ptr) and 0 <= kmin <= kmax <= len(vals) <=
// len(fids), so every window lies inside its arrays; the ids are checked
// here.

// func nodeRunAsm(v, t, child, m []float64, mrows int, nm []float64, nmrows int, nids []int32, nptr []int64, cmin, cmax int, mids []int32, ptr []int64, kmin, kmax int, vals []float64, fids []int32, f []float64, rows int, rowDst, fold bool, node uint8) (ok bool)
//
// One call per run of nodes n < len(nids). With h row nids[n] of the
// nmrows×len(child) matrix nm, the node action is one of:
//
//	node 0: the fibers fold into w = v (the one-level forms; h unread);
//	node 1: t = +0, the fibers fold into w = t, then v += t ⊙ h;
//	node 2: t = +0, the fibers fold into w = t, then h += v ⊙ t;
//	node 3: t = v ⊙ h, then the fibers fold into w = t.
//
// Each fiber c of the node sums child = Σₖ vals[k]·f[fids[k]] over the
// rows×len(child) matrix f, and then, with fold, folds it with row mids[c]
// of the mrows×len(child) matrix m: w += child ⊙ row, or, with rowDst,
// row += child ⊙ w. An empty node still takes its node action.
//
// Per fiber: DI dst, DX g, SI child (all advancing by block), R8 vals,
// R9 fids (both advancing by leaf), R10 f, R11 rows, R12 row stride in
// bytes, R13 column offset in bytes, CX the window's length, BX leaves
// left, AX the leaf's row. The node cursor, the node's next and end
// fibers, the leaf window's start and length, w and h sit in the locals.
// The fiber loop stops when its cursor reaches the end, so it relies on
// the clamp never to reverse a node's window.
TEXT ·nodeRunAsm(SB), NOSPLIT, $64-353
	MOVQ    child_len+56(FP), R12
	SHLQ    $3, R12
	MOVQ    f_base+312(FP), R10
	MOVQ    rows+336(FP), R11
	MOVQ    $0, n-40(SP)

nrNode:
	MOVQ    n-40(SP), AX
	CMPQ    AX, nids_len+144(FP)
	JGE     nrDone
	MOVQ    nptr_base+160(FP), BX
	MOVQ    (BX)(AX*8), CX
	MOVQ    8(BX)(AX*8), DX
	MOVQ    cmin+184(FP), SI
	CMPQ    CX, SI
	CMOVQLT SI, CX
	MOVQ    cmax+192(FP), SI
	CMPQ    DX, SI
	CMOVQGT SI, DX
	CMPQ    DX, CX
	CMOVQLT CX, DX
	MOVQ    CX, c-8(SP)
	MOVQ    DX, chi-48(SP)
	MOVQ    v_base+0(FP), DI
	MOVQ    DI, w-56(SP)
	MOVBLZX node+346(FP), BX
	TESTQ   BX, BX
	JZ      nrFiber
	MOVQ    nids_base+136(FP), SI
	MOVLQSX (SI)(AX*4), DX
	CMPQ    DX, nmrows+128(FP)
	JAE     nrBad
	IMULQ   R12, DX
	ADDQ    nm_base+104(FP), DX
	MOVQ    DX, h-64(SP)
	MOVQ    t_base+24(FP), DI
	MOVQ    DI, w-56(SP)
	CMPQ    BX, $3
	JEQ     nrPush
	VXORPD  Y0, Y0, Y0
	MOVQ    R12, BX

nrZero4:
	CMPQ    BX, $32
	JLT     nrZero1
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $32, BX
	JMP     nrZero4

nrZero1:
	TESTQ   BX, BX
	JZ      nrFiber
	VMOVSD  X0, (DI)
	ADDQ    $8, DI
	SUBQ    $8, BX
	JMP     nrZero1

nrPush:
	MOVQ    v_base+0(FP), SI
	MOVQ    R12, BX

nrPush4:
	CMPQ    BX, $32
	JLT     nrPush1
	VMOVUPD (SI), Y0
	VMULPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, BX
	JMP     nrPush4

nrPush1:
	TESTQ   BX, BX
	JZ      nrFiber
	VMOVSD  (SI), X0
	VMULSD  (DX), X0, X0
	VMOVSD  X0, (DI)
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, DI
	SUBQ    $8, BX
	JMP     nrPush1

nrFiber:
	MOVQ    c-8(SP), AX
	CMPQ    AX, chi-48(SP)
	JEQ     nrPost
	MOVQ    ptr_base+224(FP), BX
	MOVQ    (BX)(AX*8), CX
	MOVQ    8(BX)(AX*8), DX
	MOVQ    kmin+248(FP), SI
	CMPQ    CX, SI
	CMOVQLT SI, CX
	MOVQ    kmax+256(FP), SI
	CMPQ    DX, SI
	CMOVQGT SI, DX
	CMPQ    DX, CX
	CMOVQLT CX, DX
	SUBQ    CX, DX
	MOVQ    DX, wn-32(SP)
	MOVQ    vals_base+264(FP), SI
	LEAQ    (SI)(CX*8), SI
	MOVQ    SI, wv-16(SP)
	MOVQ    fids_base+288(FP), SI
	LEAQ    (SI)(CX*4), SI
	MOVQ    SI, wf-24(SP)
	MOVQ    mids_base+200(FP), SI
	MOVLQSX (SI)(AX*4), BX
	CMPQ    BX, mrows+96(FP)
	JAE     nrBad
	IMULQ   R12, BX
	ADDQ    m_base+72(FP), BX
	MOVQ    w-56(SP), DI
	MOVQ    BX, DX
	MOVBLZX rowDst+344(FP), CX
	TESTQ   CX, CX
	JZ      nrSet
	MOVQ    DI, DX
	MOVQ    BX, DI

nrSet:
	MOVQ    child_base+48(FP), SI
	MOVQ    wn-32(SP), CX
	XORQ    R13, R13

fr32:
	MOVQ    R12, AX
	SUBQ    R13, AX
	CMPQ    AX, $256
	JLT     fr16
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      fr32store

fr32leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     nrBad
	IMULQ   R12, AX
	ADDQ    R10, AX
	ADDQ    R13, AX
	VBROADCASTSD (R8), Y8
	VMULPD  0(AX), Y8, Y9
	VMULPD  32(AX), Y8, Y10
	VMULPD  64(AX), Y8, Y11
	VMULPD  96(AX), Y8, Y12
	VADDPD  Y9, Y0, Y0
	VADDPD  Y10, Y1, Y1
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y3, Y3
	VMULPD  128(AX), Y8, Y9
	VMULPD  160(AX), Y8, Y10
	VMULPD  192(AX), Y8, Y11
	VMULPD  224(AX), Y8, Y12
	VADDPD  Y9, Y4, Y4
	VADDPD  Y10, Y5, Y5
	VADDPD  Y11, Y6, Y6
	VADDPD  Y12, Y7, Y7
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     fr32leaf

fr32store:
	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	VMOVUPD Y4, 128(SI)
	VMOVUPD Y5, 160(SI)
	VMOVUPD Y6, 192(SI)
	VMOVUPD Y7, 224(SI)
	MOVBLZX fold+345(FP), AX
	TESTQ   AX, AX
	JZ      fr32next
	VMULPD  0(DX), Y0, Y0
	VMULPD  32(DX), Y1, Y1
	VMULPD  64(DX), Y2, Y2
	VMULPD  96(DX), Y3, Y3
	VMULPD  128(DX), Y4, Y4
	VMULPD  160(DX), Y5, Y5
	VMULPD  192(DX), Y6, Y6
	VMULPD  224(DX), Y7, Y7
	VADDPD  0(DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VADDPD  128(DI), Y4, Y4
	VADDPD  160(DI), Y5, Y5
	VADDPD  192(DI), Y6, Y6
	VADDPD  224(DI), Y7, Y7
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)

fr32next:
	ADDQ    $256, SI
	ADDQ    $256, DI
	ADDQ    $256, DX
	ADDQ    $256, R13
	JMP     fr32

fr16:
	CMPQ    AX, $128
	JLT     fr4
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      fr16store

fr16leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     nrBad
	IMULQ   R12, AX
	ADDQ    R10, AX
	ADDQ    R13, AX
	VBROADCASTSD (R8), Y8
	VMULPD  0(AX), Y8, Y9
	VMULPD  32(AX), Y8, Y10
	VMULPD  64(AX), Y8, Y11
	VMULPD  96(AX), Y8, Y12
	VADDPD  Y9, Y0, Y0
	VADDPD  Y10, Y1, Y1
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y3, Y3
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     fr16leaf

fr16store:
	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	MOVBLZX fold+345(FP), AX
	TESTQ   AX, AX
	JZ      fr16next
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

fr16next:
	ADDQ    $128, SI
	ADDQ    $128, DI
	ADDQ    $128, DX
	ADDQ    $128, R13

fr4:
	MOVQ    R12, AX
	SUBQ    R13, AX
	CMPQ    AX, $32
	JLT     fr1
	VXORPD  Y0, Y0, Y0
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      fr4store

fr4leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     nrBad
	IMULQ   R12, AX
	ADDQ    R10, AX
	ADDQ    R13, AX
	VBROADCASTSD (R8), Y8
	VMULPD  0(AX), Y8, Y9
	VADDPD  Y9, Y0, Y0
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     fr4leaf

fr4store:
	VMOVUPD Y0, 0(SI)
	MOVBLZX fold+345(FP), AX
	TESTQ   AX, AX
	JZ      fr4next
	VMULPD  0(DX), Y0, Y0
	VADDPD  0(DI), Y0, Y0
	VMOVUPD Y0, 0(DI)

fr4next:
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	ADDQ    $32, R13
	JMP     fr4

// The scalar tail uses VEX-encoded scalar operations, so the next fiber's
// 256-bit blocks follow without an SSE transition; VZEROUPPER runs once,
// on the way out.
fr1:
	CMPQ    R13, R12
	JGE     frNext
	VXORPD  X0, X0, X0
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      fr1store

fr1leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     nrBad
	IMULQ   R12, AX
	ADDQ    R10, AX
	ADDQ    R13, AX
	VMOVSD  (R8), X1
	VMULSD  (AX), X1, X1
	VADDSD  X1, X0, X0
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     fr1leaf

fr1store:
	VMOVSD  X0, (SI)
	MOVBLZX fold+345(FP), AX
	TESTQ   AX, AX
	JZ      fr1next
	VMULSD  (DX), X0, X0
	VADDSD  (DI), X0, X0
	VMOVSD  X0, (DI)

fr1next:
	ADDQ    $8, SI
	ADDQ    $8, DI
	ADDQ    $8, DX
	ADDQ    $8, R13
	JMP     fr1

frNext:
	INCQ    c-8(SP)
	JMP     nrFiber

// Node actions 1 and 2 fold t into v with h, or into h with v, as
// hadamardAccum does: DI += SI ⊙ DX, four columns at a time, then the
// scalar tail.
nrPost:
	MOVBLZX node+346(FP), BX
	CMPQ    BX, $1
	JEQ     nrFoldV
	CMPQ    BX, $2
	JNE     nrNextNode
	MOVQ    h-64(SP), DI
	MOVQ    v_base+0(FP), SI
	MOVQ    t_base+24(FP), DX
	JMP     nrAcc

nrFoldV:
	MOVQ    v_base+0(FP), DI
	MOVQ    t_base+24(FP), SI
	MOVQ    h-64(SP), DX

nrAcc:
	MOVQ    R12, BX

nrAcc4:
	CMPQ    BX, $32
	JLT     nrAcc1
	VMOVUPD (SI), Y0
	VMULPD  (DX), Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, BX
	JMP     nrAcc4

nrAcc1:
	TESTQ   BX, BX
	JZ      nrNextNode
	VMOVSD  (SI), X0
	VMULSD  (DX), X0, X0
	VADDSD  (DI), X0, X0
	VMOVSD  X0, (DI)
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, DI
	SUBQ    $8, BX
	JMP     nrAcc1

nrNextNode:
	INCQ    n-40(SP)
	JMP     nrNode

nrDone:
	VZEROUPPER
	MOVB    $1, ok+352(FP)
	RET

nrBad:
	VZEROUPPER
	MOVB    $0, ok+352(FP)
	RET

// func nodeRunScatterAsm(out []float64, orows int, k, a, t, nm []float64, nmrows int, nids []int32, nptr []int64, cmin, cmax int, gm []float64, grows int, mids []int32, ptr []int64, kmin, kmax int, vals []float64, fids []int32, push bool) (ok bool)
//
// One call per run of nodes n < len(nids), windows as in nodeRunAsm. With
// push, t = a ⊙ row nids[n] of the nmrows×len(k) matrix nm and w = t;
// otherwise w = a (the one-level form; nm unread). Then for each fiber c
// of the node, k = w ⊙ row mids[c] of the grows×len(k) matrix gm, and
// vals[j]·k is added into row fids[j] of the orows×len(k) matrix out, leaf
// by leaf, so a row repeated in the run is updated in leaf order.
//
// Per fiber: R10 the g row, SI k, DX w (all advancing by block); DI out,
// R11 orows, R12 the row stride in bytes, R13 the column offset, CX the
// window length, R8, R9, BX leaf cursors, AX the leaf's output row.
TEXT ·nodeRunScatterAsm(SB), NOSPLIT, $64-353
	MOVQ    out_base+0(FP), DI
	MOVQ    orows+24(FP), R11
	MOVQ    k_len+40(FP), R12
	SHLQ    $3, R12
	MOVQ    $0, n-40(SP)

rsNode:
	MOVQ    n-40(SP), AX
	CMPQ    AX, nids_len+144(FP)
	JGE     rsDone
	MOVQ    nptr_base+160(FP), BX
	MOVQ    (BX)(AX*8), CX
	MOVQ    8(BX)(AX*8), DX
	MOVQ    cmin+184(FP), SI
	CMPQ    CX, SI
	CMOVQLT SI, CX
	MOVQ    cmax+192(FP), SI
	CMPQ    DX, SI
	CMOVQGT SI, DX
	CMPQ    DX, CX
	CMOVQLT CX, DX
	MOVQ    CX, c-8(SP)
	MOVQ    DX, chi-48(SP)
	MOVQ    a_base+56(FP), SI
	MOVQ    SI, w-56(SP)
	MOVBLZX push+344(FP), BX
	TESTQ   BX, BX
	JZ      rsFiber
	MOVQ    nids_base+136(FP), R8
	MOVLQSX (R8)(AX*4), DX
	CMPQ    DX, nmrows+128(FP)
	JAE     rsBad
	IMULQ   R12, DX
	ADDQ    nm_base+104(FP), DX
	MOVQ    t_base+80(FP), R8
	MOVQ    R8, w-56(SP)
	MOVQ    R12, BX

rsPush4:
	CMPQ    BX, $32
	JLT     rsPush1
	VMOVUPD (SI), Y0
	VMULPD  (DX), Y0, Y0
	VMOVUPD Y0, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	SUBQ    $32, BX
	JMP     rsPush4

rsPush1:
	TESTQ   BX, BX
	JZ      rsFiber
	VMOVSD  (SI), X0
	VMULSD  (DX), X0, X0
	VMOVSD  X0, (R8)
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, R8
	SUBQ    $8, BX
	JMP     rsPush1

rsFiber:
	MOVQ    c-8(SP), AX
	CMPQ    AX, chi-48(SP)
	JEQ     rsNextNode
	MOVQ    ptr_base+256(FP), BX
	MOVQ    (BX)(AX*8), CX
	MOVQ    8(BX)(AX*8), DX
	MOVQ    kmin+280(FP), SI
	CMPQ    CX, SI
	CMOVQLT SI, CX
	MOVQ    kmax+288(FP), SI
	CMPQ    DX, SI
	CMOVQGT SI, DX
	CMPQ    DX, CX
	CMOVQLT CX, DX
	SUBQ    CX, DX
	MOVQ    DX, wn-32(SP)
	MOVQ    vals_base+296(FP), SI
	LEAQ    (SI)(CX*8), SI
	MOVQ    SI, wv-16(SP)
	MOVQ    fids_base+320(FP), SI
	LEAQ    (SI)(CX*4), SI
	MOVQ    SI, wf-24(SP)
	MOVQ    mids_base+232(FP), SI
	MOVLQSX (SI)(AX*4), R10
	CMPQ    R10, grows+224(FP)
	JAE     rsBad
	IMULQ   R12, R10
	ADDQ    gm_base+200(FP), R10
	MOVQ    k_base+32(FP), SI
	MOVQ    w-56(SP), DX
	MOVQ    wn-32(SP), CX
	XORQ    R13, R13

rs32:
	MOVQ    R12, AX
	SUBQ    R13, AX
	CMPQ    AX, $256
	JLT     rs16
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7
	VMULPD  0(R10), Y0, Y0
	VMULPD  32(R10), Y1, Y1
	VMULPD  64(R10), Y2, Y2
	VMULPD  96(R10), Y3, Y3
	VMULPD  128(R10), Y4, Y4
	VMULPD  160(R10), Y5, Y5
	VMULPD  192(R10), Y6, Y6
	VMULPD  224(R10), Y7, Y7
	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	VMOVUPD Y4, 128(SI)
	VMOVUPD Y5, 160(SI)
	VMOVUPD Y6, 192(SI)
	VMOVUPD Y7, 224(SI)
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      rs32next

rs32leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     rsBad
	IMULQ   R12, AX
	ADDQ    DI, AX
	ADDQ    R13, AX
	VBROADCASTSD (R8), Y8
	VMULPD  Y0, Y8, Y9
	VMULPD  Y1, Y8, Y10
	VMULPD  Y2, Y8, Y11
	VMULPD  Y3, Y8, Y12
	VADDPD  0(AX), Y9, Y9
	VADDPD  32(AX), Y10, Y10
	VADDPD  64(AX), Y11, Y11
	VADDPD  96(AX), Y12, Y12
	VMOVUPD Y9, 0(AX)
	VMOVUPD Y10, 32(AX)
	VMOVUPD Y11, 64(AX)
	VMOVUPD Y12, 96(AX)
	VMULPD  Y4, Y8, Y9
	VMULPD  Y5, Y8, Y10
	VMULPD  Y6, Y8, Y11
	VMULPD  Y7, Y8, Y12
	VADDPD  128(AX), Y9, Y9
	VADDPD  160(AX), Y10, Y10
	VADDPD  192(AX), Y11, Y11
	VADDPD  224(AX), Y12, Y12
	VMOVUPD Y9, 128(AX)
	VMOVUPD Y10, 160(AX)
	VMOVUPD Y11, 192(AX)
	VMOVUPD Y12, 224(AX)
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     rs32leaf

rs32next:
	ADDQ    $256, SI
	ADDQ    $256, DX
	ADDQ    $256, R10
	ADDQ    $256, R13
	JMP     rs32

rs16:
	CMPQ    AX, $128
	JLT     rs4
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMULPD  0(R10), Y0, Y0
	VMULPD  32(R10), Y1, Y1
	VMULPD  64(R10), Y2, Y2
	VMULPD  96(R10), Y3, Y3
	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      rs16next

rs16leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     rsBad
	IMULQ   R12, AX
	ADDQ    DI, AX
	ADDQ    R13, AX
	VBROADCASTSD (R8), Y8
	VMULPD  Y0, Y8, Y9
	VMULPD  Y1, Y8, Y10
	VMULPD  Y2, Y8, Y11
	VMULPD  Y3, Y8, Y12
	VADDPD  0(AX), Y9, Y9
	VADDPD  32(AX), Y10, Y10
	VADDPD  64(AX), Y11, Y11
	VADDPD  96(AX), Y12, Y12
	VMOVUPD Y9, 0(AX)
	VMOVUPD Y10, 32(AX)
	VMOVUPD Y11, 64(AX)
	VMOVUPD Y12, 96(AX)
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     rs16leaf

rs16next:
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, R10
	ADDQ    $128, R13

rs4:
	MOVQ    R12, AX
	SUBQ    R13, AX
	CMPQ    AX, $32
	JLT     rs1
	VMOVUPD 0(DX), Y0
	VMULPD  0(R10), Y0, Y0
	VMOVUPD Y0, 0(SI)
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      rs4next

rs4leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     rsBad
	IMULQ   R12, AX
	ADDQ    DI, AX
	ADDQ    R13, AX
	VBROADCASTSD (R8), Y8
	VMULPD  Y0, Y8, Y9
	VADDPD  0(AX), Y9, Y9
	VMOVUPD Y9, 0(AX)
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     rs4leaf

rs4next:
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R10
	ADDQ    $32, R13
	JMP     rs4

rs1:
	CMPQ    R13, R12
	JGE     rsNext
	VMOVSD  (DX), X0
	VMULSD  (R10), X0, X0
	VMOVSD  X0, (SI)
	MOVQ    wv-16(SP), R8
	MOVQ    wf-24(SP), R9
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      rs1next

rs1leaf:
	MOVLQSX (R9), AX
	CMPQ    AX, R11
	JAE     rsBad
	IMULQ   R12, AX
	ADDQ    DI, AX
	ADDQ    R13, AX
	VMOVSD  (R8), X1
	VMULSD  X0, X1, X1
	VADDSD  (AX), X1, X1
	VMOVSD  X1, (AX)
	ADDQ    $8, R8
	ADDQ    $4, R9
	DECQ    BX
	JNZ     rs1leaf

rs1next:
	ADDQ    $8, SI
	ADDQ    $8, DX
	ADDQ    $8, R10
	ADDQ    $8, R13
	JMP     rs1

rsNext:
	INCQ    c-8(SP)
	JMP     rsFiber

rsNextNode:
	INCQ    n-40(SP)
	JMP     rsNode

rsDone:
	VZEROUPPER
	MOVB    $1, ok+352(FP)
	RET

rsBad:
	VZEROUPPER
	MOVB    $0, ok+352(FP)
	RET
