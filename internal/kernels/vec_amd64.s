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

// The fiber kernels (vec_amd64.go). foldAsm, pushAsm and scatterAsm take
// a kernelArgs: a run of sibling level d-3 nodes, each with its run of
// level d-2 fibers (the run forms pass one node whose window is their
// whole run). fiberAsm takes one fiber. Each call runs its column blocks
// outermost, and each block is one pass over every node, fiber and leaf
// (BLOCKS): 64 columns at a time, each fiber taking the two 32-column
// halves in turn, then 32, then the rest in one pass: a 20-column one for
// a rest of exactly 20 (R = 20, restarts' rank), otherwise one of 1 to 8
// chunks whose last chunk is masked (VMASKMOVPD) to the block's last 1 to
// 4 columns. So a call makes at most one pass more than it has whole
// 64-column blocks: R = 10, 20, 32 and 64 are one pass, R = 50 two. A run
// whose rank spans more than one 64-column block goes over segments of 32
// fibers, so the later passes find the rows the first fetched. Columns do
// not interact, so the blocking changes no bit. Within a block every
// element sees the Go forms' IEEE operations in the Go forms' order: a
// VMULPD lane then a VADDPD lane, never an FMA, every sum starting from
// +0, and each operand order as the Go forms' primitives have it, since a
// NaN result carries the first source's payload. A masked chunk computes
// its lanes the same way; it loads and stores through the mask, so no
// column past the rank is read or written.
//
// In a 32-column block (the narrower blocks use a prefix of the same
// registers; a 64-column block runs it per half):
//   - fold-up (foldAsm: runHad, nodeHad, nodeOut): the node's accumulator
//     t stays in Y8-Y15 from its start, +0 (or dst, for runHad), to its
//     end. A fiber of one leaf adds c ⊙ m into it chunk by chunk, c = +0 +
//     val·f as fiberSum forms it (Y4 the value, Y7 the +0, Y5 the chunk).
//     A longer or empty fiber spills t to the stack, sums its leaves in
//     Y8-Y15 from +0 in one walk over its leaves, and sets t = sum ⊙ m +
//     the spilled t. The node then ends straight-line: dst += t ⊙ h
//     (nodeHad), row += k ⊙ t (nodeOut) or dst = t (runHad). In a
//     64-column block the second half's t lives on the stack for the
//     whole node, and each fiber updates it there.
//   - push-out (pushAsm: runOut, nodePushOut): each node stores t = a ⊙ h
//     once into the scratch t (w = t; runOut's w is g), each fiber's sum
//     stays in Y0-Y7, and its output row gets one read-modify-write with
//     w as a memory operand.
//   - scatter (scatterAsm: runScatter, nodePushScatter): t and w as in
//     pushAsm; each fiber's k = w ⊙ m stays in Y0-Y7, and each leaf row
//     gets one read-modify-write.
//   - fiberAsm: the sum in Y0-Y7 is stored to child, the output of
//     fiberSum and fiberHad, and then folded into dst.
//
// So the run and node forms' child, t and k are scratch, left as they
// were except for the push forms' t, and no fiber's sum is stored.
//
// Each node, fiber and leaf id is sign-extended and checked against its
// row count with one unsigned compare (a negative id fails it too) before
// its row is read or written; row offsets are 64-bit products. Node n's
// fibers are [nptr[n], nptr[n+1]) clamped to [cmin, cmax) and fiber c's
// leaves [ptr[c], ptr[c+1]) clamped to [kmin, kmax), neither ever
// reversed; the wrappers guarantee that every window lies in its arrays.

#include "go_asm.h"

// Offsets of the node run in a kernelArgs.
#define NIDS kernelArgs_nodeRun+nodeRun_nids
#define NODES kernelArgs_nodeRun+nodeRun_nids+8
#define NPTR kernelArgs_nodeRun+nodeRun_ptr
#define CMIN kernelArgs_nodeRun+nodeRun_cMin
#define CMAX kernelArgs_nodeRun+nodeRun_cMax
#define MIDS kernelArgs_nodeRun+nodeRun_fibers+fiberRun_mids
#define FPTR kernelArgs_nodeRun+nodeRun_fibers+fiberRun_ptr
#define KMIN kernelArgs_nodeRun+nodeRun_fibers+fiberRun_kMin
#define KMAX kernelArgs_nodeRun+nodeRun_fibers+fiberRun_kMax
#define VALS kernelArgs_nodeRun+nodeRun_fibers+fiberRun_vals
#define FIDS kernelArgs_nodeRun+nodeRun_fibers+fiberRun_fids

// ROW loads the id at ADDR into R and, if it lies in [0, LIM), makes R
// its row's address, BASE + id·stride (R12); otherwise it jumps to bad.
#define ROW(ADDR, R, LIM, BASE) \
	MOVLQSX ADDR, R; \
	CMPQ    R, LIM; \
	JAE     bad; \
	IMULQ   R12, R; \
	ADDQ    BASE, R

// NODEWIN loads node AX's fiber window, clamped to the pass's fiber
// window [clo, chi), into [CX, END), with BX.
#define NODEWIN(END) \
	MOVQ    NPTR(DI), BX; \
	MOVQ    (BX)(AX*8), CX; \
	MOVQ    8(BX)(AX*8), END; \
	CMPQ    CX, clo-32(SP); \
	CMOVQLT clo-32(SP), CX; \
	CMPQ    END, chi-40(SP); \
	CMOVQGT chi-40(SP), END; \
	CMPQ    END, CX; \
	CMOVQLT CX, END

// PASSARGS saves a pass's arguments in its locals: the nodes [AX, BX),
// the fiber window [CX, DX) and the mode SI.
#define PASSARGS \
	MOVQ    AX, n-8(SP); \
	MOVQ    SI, mode-16(SP); \
	MOVQ    BX, nend-24(SP); \
	MOVQ    CX, clo-32(SP); \
	MOVQ    DX, chi-40(SP)

// LEAFWIN loads fiber CX's clamped leaf window: R8 and R9 point at its
// first value and id, BX is its length. It clobbers AX.
#define LEAFWIN \
	MOVQ    FPTR(DI), BX; \
	MOVQ    (BX)(CX*8), R8; \
	MOVQ    8(BX)(CX*8), BX; \
	CMPQ    R8, KMIN(DI); \
	CMOVQLT KMIN(DI), R8; \
	CMPQ    BX, KMAX(DI); \
	CMOVQGT KMAX(DI), BX; \
	CMPQ    BX, R8; \
	CMOVQLT R8, BX; \
	SUBQ    R8, BX; \
	MOVQ    FIDS(DI), R9; \
	LEAQ    (R9)(R8*4), R9; \
	MOVQ    VALS(DI), AX; \
	LEAQ    (AX)(R8*8), R8

// Chunk lists: each applies its macros to the 4-column chunks of a block,
// with the chunk's byte offset and its register: the accumulator of a
// fold-up, the sum of a push-out or scatter. A list takes two macros, M
// and MM: the masked lists (FMn, PMn, n chunks) apply MM to their last
// chunk, which holds the block's last one to four columns, and M to the
// rest; the other lists apply M throughout. Each list is the one before
// it with one more chunk, so FMn(M, M) and PMn(M, M) are full lists. The
// fold-up lists take a third macro, MH, which F64 applies to the chunks
// of its second 32 columns (FH64), whose accumulator lives on the stack.
#define FM1(M, MM, MH) MM(0, Y8)
#define FM2(M, MM, MH) FM1(M, M, MH); MM(32, Y9)
#define FM3(M, MM, MH) FM2(M, M, MH); MM(64, Y10)
#define FM4(M, MM, MH) FM3(M, M, MH); MM(96, Y11)
#define FM5(M, MM, MH) FM4(M, M, MH); MM(128, Y12)
#define FM6(M, MM, MH) FM5(M, M, MH); MM(160, Y13)
#define FM7(M, MM, MH) FM6(M, M, MH); MM(192, Y14)
#define FM8(M, MM, MH) FM7(M, M, MH); MM(224, Y15)
#define F20(M, MM, MH) FM5(M, M, MH)
#define F32(M, MM, MH) FM8(M, M, MH)
#define FH64(M, MM, MH) MH(256, Y8); MH(288, Y9); MH(320, Y10); MH(352, Y11); MH(384, Y12); MH(416, Y13); MH(448, Y14); MH(480, Y15)
#define F64(M, MM, MH) F32(M, MM, MH); FH64(M, MM, MH)
#define PM1(M, MM) MM(0, Y0)
#define PM2(M, MM) PM1(M, M); MM(32, Y1)
#define PM3(M, MM) PM2(M, M); MM(64, Y2)
#define PM4(M, MM) PM3(M, M); MM(96, Y3)
#define PM5(M, MM) PM4(M, M); MM(128, Y4)
#define PM6(M, MM) PM5(M, M); MM(160, Y5)
#define PM7(M, MM) PM6(M, M); MM(192, Y6)
#define PM8(M, MM) PM7(M, M); MM(224, Y7)
#define P4(M, MM) PM1(M, M)
#define P16(M, MM) PM4(M, M)
#define P20(M, MM) PM5(M, M)
#define P32(M, MM) PM8(M, M)
#define P32HI(M, MM) M(256, Y0); M(288, Y1); M(320, Y2); M(352, Y3); M(384, Y4); M(416, Y5); M(448, Y6); M(480, Y7)
#define P64(M, MM) P32(M, M); P32HI(M, M)

// Fold-up chunks: AX the leaf's row (the node's row at the node's end),
// DX the fiber's row, R14 dst or the nodeOut output matrix, T the chunk's
// accumulator, Y4 the leaf value, Y7 +0, Y6 the mask of a masked chunk,
// Y5 and Y0 for loaded operands and products. FONE adds a one-leaf
// fiber's (+0 + val·f) ⊙ m into t. A longer or empty fiber spills t to
// the stack (FSPILL, at the chunk's offset from the hardware SP), sums
// its leaves in t's registers from +0 (TZERO, FADD), and FFOLD sets t =
// sum ⊙ m + the spilled t. TLOAD, TSTORE, THAD and TOUT start and end a
// node. Each ...M form is the chunk's masked twin: it reads and writes
// the matrices with VMASKMOVPD under Y6, so it touches no column past the
// block, and computes the same lanes with the same operand order. The
// masked-off lanes hold zeros and whatever they make, and are never
// stored outside the stack.
#define FONE(OFF, T) VMULPD OFF(AX), Y4, Y5; VADDPD Y5, Y7, Y5; VMULPD OFF(DX), Y5, Y5; VADDPD T, Y5, T
#define FONEM(OFF, T) VMASKMOVPD OFF(AX), Y6, Y0; VMULPD Y0, Y4, Y5; VADDPD Y5, Y7, Y5; VMASKMOVPD OFF(DX), Y6, Y0; VMULPD Y0, Y5, Y5; VADDPD T, Y5, T
#define FSPILL(OFF, T) VMOVUPD T, OFF(SP)
#define FADD(OFF, T) VMULPD OFF(AX), Y4, Y5; VADDPD Y5, T, T
#define FADDM(OFF, T) VMASKMOVPD OFF(AX), Y6, Y5; VMULPD Y5, Y4, Y5; VADDPD Y5, T, T
#define FFOLD(OFF, T) VMULPD OFF(DX), T, T; VADDPD OFF(SP), T, T
#define FFOLDM(OFF, T) VMASKMOVPD OFF(DX), Y6, Y5; VMULPD Y5, T, T; VADDPD OFF(SP), T, T
#define TZERO(OFF, T) VXORPD T, T, T
#define TLOAD(OFF, T) VMOVUPD OFF(R14), T
#define TLOADM(OFF, T) VMASKMOVPD OFF(R14), Y6, T
#define TSTORE(OFF, T) VMOVUPD T, OFF(R14)
#define TSTOREM(OFF, T) VMASKMOVPD T, Y6, OFF(R14)
#define THAD(OFF, T) VMULPD OFF(AX), T, Y5; VADDPD OFF(R14), Y5, Y5; VMOVUPD Y5, OFF(R14)
#define THADM(OFF, T) VMASKMOVPD OFF(AX), Y6, Y5; VMULPD Y5, T, Y5; VMASKMOVPD OFF(R14), Y6, Y0; VADDPD Y0, Y5, Y5; VMASKMOVPD Y5, Y6, OFF(R14)
#define TOUT(OFF, T) VMOVUPD OFF(AX), Y5; VMULPD T, Y5, Y5; VADDPD OFF(BX), Y5, Y5; VMOVUPD Y5, OFF(BX)
#define TOUTM(OFF, T) VMASKMOVPD OFF(AX), Y6, Y5; VMULPD T, Y5, Y5; VMASKMOVPD OFF(BX), Y6, Y0; VADDPD Y0, Y5, Y5; VMASKMOVPD Y5, Y6, OFF(BX)

// The stack-accumulator chunks of a 64-column fold-up block: t's second
// 32 columns live at the chunk's offset from the hardware SP (256-511),
// above the spill area, for the whole node. Each does what its register
// twin does (HONE FONE, HFOLD FFOLD, ...), in the same order, with t read
// from and written back to the stack.
#define HZERO(OFF, T) VMOVUPD Y7, OFF(SP)
#define HLOAD(OFF, T) VMOVUPD OFF(R14), Y5; VMOVUPD Y5, OFF(SP)
#define HONE(OFF, T) VMULPD OFF(AX), Y4, Y5; VADDPD Y5, Y7, Y5; VMULPD OFF(DX), Y5, Y5; VADDPD OFF(SP), Y5, Y5; VMOVUPD Y5, OFF(SP)
#define HFOLD(OFF, T) VMULPD OFF(DX), T, T; VADDPD OFF(SP), T, T; VMOVUPD T, OFF(SP)
#define HSTORE(OFF, T) VMOVUPD OFF(SP), Y5; VMOVUPD Y5, OFF(R14)
#define HHAD(OFF, T) VMOVUPD OFF(SP), Y0; VMULPD OFF(AX), Y0, Y5; VADDPD OFF(R14), Y5, Y5; VMOVUPD Y5, OFF(R14)
#define HOUT(OFF, T) VMOVUPD OFF(AX), Y5; VMULPD OFF(SP), Y5, Y5; VADDPD OFF(BX), Y5, Y5; VMOVUPD Y5, OFF(BX)

// Push-out, scatter and fiberAsm chunks: AX the leaf's row, DX the
// fiber's output row (dst in fiberAsm, the fiber's row of m in scatter),
// R15 w (g in fiberAsm), R14 the scratch t, SI child, Y8 the leaf value,
// Y15 the mask of a masked chunk. PSUM adds val·f into the sum, PFOLD
// adds sum ⊙ w into the row, PT sets t = a ⊙ h (a at BX, h at AX), SK
// sets k = w ⊙ m, SSCAT adds val·k into the leaf's row; the ...M twins
// are masked as the fold-up ones are, with Y9 and Y10 for loaded
// operands.
#define PZERO(OFF, S) VXORPD S, S, S
#define PSUM(OFF, S) VMULPD OFF(AX), Y8, Y9; VADDPD Y9, S, S
#define PSUMM(OFF, S) VMASKMOVPD OFF(AX), Y15, Y9; VMULPD Y9, Y8, Y9; VADDPD Y9, S, S
#define PFOLD(OFF, S) VMULPD OFF(R15), S, S; VADDPD OFF(DX), S, S; VMOVUPD S, OFF(DX)
#define PFOLDM(OFF, S) VMASKMOVPD OFF(R15), Y15, Y9; VMULPD Y9, S, S; VMASKMOVPD OFF(DX), Y15, Y9; VADDPD Y9, S, S; VMASKMOVPD S, Y15, OFF(DX)
#define PSTORE(OFF, S) VMOVUPD S, OFF(SI)
#define PSTOREM(OFF, S) VMASKMOVPD S, Y15, OFF(SI)
#define PT(OFF, S) VMOVUPD OFF(BX), S; VMULPD OFF(AX), S, S; VMOVUPD S, OFF(R14)
#define PTM(OFF, S) VMASKMOVPD OFF(BX), Y15, S; VMASKMOVPD OFF(AX), Y15, Y9; VMULPD Y9, S, S; VMASKMOVPD S, Y15, OFF(R14)
#define SK(OFF, S) VMOVUPD OFF(R15), S; VMULPD OFF(DX), S, S
#define SKM(OFF, S) VMASKMOVPD OFF(R15), Y15, S; VMASKMOVPD OFF(DX), Y15, Y9; VMULPD Y9, S, S
#define SSCAT(OFF, S) VMULPD S, Y8, Y9; VADDPD OFF(AX), Y9, Y9; VMOVUPD Y9, OFF(AX)
#define SSCATM(OFF, S) VMULPD S, Y8, Y9; VMASKMOVPD OFF(AX), Y15, Y10; VADDPD Y10, Y9, Y9; VMASKMOVPD Y9, Y15, OFF(AX)

// lanes<> is four all-ones quadwords then four zero ones: the 32 bytes at
// lanes<>+32-8n are the mask of a chunk's first n columns.
DATA lanes<>+0(SB)/8, $-1
DATA lanes<>+8(SB)/8, $-1
DATA lanes<>+16(SB)/8, $-1
DATA lanes<>+24(SB)/8, $-1
DATA lanes<>+32(SB)/8, $0
DATA lanes<>+40(SB)/8, $0
DATA lanes<>+48(SB)/8, $0
DATA lanes<>+56(SB)/8, $0
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// MASK loads into Y6 and Y15 the mask of the last chunk of a block AX
// bytes wide (a multiple of 8), with BX and CX.
#define MASK \
	LEAQ    -8(AX), BX; \
	ANDQ    $24, BX; \
	NEGQ    BX; \
	LEAQ    lanes<>+24(SB), CX; \
	VMOVUPD (CX)(BX*1), Y6; \
	VMOVUPD Y6, Y15

// SEGMENT is how many fibers of a run one segment holds when the rank
// spans more than one 64-column block.
#define SEGMENT 32

// BLOCKS runs a call's column blocks, calling the family's pass for each:
// DI is the kernelArgs, R12 the row stride, R13 the block's column offset
// in bytes. Blocks of 64 columns (PASS64), then one of 32 (PASS32), run
// while that many are left; a rest of exactly 20 columns runs as the
// 20-column pass, and any other rest of 1 to 31 columns as one masked
// pass of as many chunks (M1-M8), so a call makes at most one pass more
// than it has whole 64-column blocks. A run (mode 0) whose rank spans
// more than one 64-column block is cut into segments of SEGMENT fibers,
// and each segment runs every block before the next starts, so the later
// blocks find the segment's rows still in cache; the segments split the
// run's one node, whose start and end (dst loaded and stored) repeat
// harmlessly. Otherwise, and for every node run, the one segment is the
// whole call. SETUP loads the pass's bases for the block (R10, R11, R14,
// offset by R13) and its mode (SI) from the caller's locals; w-8 holds
// the block's width, md-32 the mode, sc0-40 and sc1-48 the segment's
// fiber window. A pass keeps DI and R10-R14 and returns AX = 0 on an id
// out of range, which ends the call at bad.
#define BLOCKS(SETUP, PASS64, PASS32, PASS20, M1, M2, M3, M4, M5, M6, M7, M8) \
	MOVQ    kernelArgs_rank(DI), R12; \
	SHLQ    $3, R12; \
	MOVQ    CMIN(DI), AX; \
	MOVQ    AX, sc1-48(SP); \
segment: \
	MOVQ    sc1-48(SP), BX; \
	MOVQ    BX, sc0-40(SP); \
	MOVQ    CMAX(DI), CX; \
	CMPQ    md-32(SP), $0; \
	JNE     segAll; \
	CMPQ    R12, $512; \
	JLE     segAll; \
	ADDQ    $SEGMENT, BX; \
	CMPQ    BX, CX; \
	CMOVQLT BX, CX; \
segAll: \
	MOVQ    CX, sc1-48(SP); \
	XORQ    R13, R13; \
block: \
	MOVQ    R12, AX; \
	SUBQ    R13, AX; \
	JEQ     segmentNext; \
	SETUP; \
	MOVQ    $512, w-8(SP); \
	CMPQ    AX, $512; \
	JGE     block64; \
	MOVQ    $256, w-8(SP); \
	CMPQ    AX, $256; \
	JGE     block32; \
	MOVQ    AX, w-8(SP); \
	CMPQ    AX, $160; \
	JEQ     block20; \
	MASK; \
	CMPQ    AX, $32; JLE blockM1; \
	CMPQ    AX, $64; JLE blockM2; \
	CMPQ    AX, $96; JLE blockM3; \
	CMPQ    AX, $128; JLE blockM4; \
	CMPQ    AX, $160; JLE blockM5; \
	CMPQ    AX, $192; JLE blockM6; \
	CMPQ    AX, $224; JLE blockM7; \
	CALLPASS(M8); \
block64: CALLPASS(PASS64); \
block32: CALLPASS(PASS32); \
block20: CALLPASS(PASS20); \
blockM1: CALLPASS(M1); \
blockM2: CALLPASS(M2); \
blockM3: CALLPASS(M3); \
blockM4: CALLPASS(M4); \
blockM5: CALLPASS(M5); \
blockM6: CALLPASS(M6); \
blockM7: CALLPASS(M7); \
blockNext: \
	TESTQ   AX, AX; \
	JEQ     bad; \
	ADDQ    w-8(SP), R13; \
	JMP     block; \
segmentNext: \
	MOVQ    sc1-48(SP), AX; \
	CMPQ    AX, CMAX(DI); \
	JLT     segment

// CALLPASS calls a pass on every node and the segment's fiber window from
// BLOCKS' locals, then goes on to the next block.
#define CALLPASS(PASS) \
	XORQ    AX, AX; \
	MOVQ    NODES(DI), BX; \
	MOVQ    sc0-40(SP), CX; \
	MOVQ    sc1-48(SP), DX; \
	CALL    PASS(SB); \
	JMP     blockNext

// FOLDPASS is one column block of foldAsm over the nodes and fiber window
// PASSARGS saves. R10 and R11 are the leaf and fiber matrices, R14 dst or
// the nodeOut output matrix; n-8 holds the node cursor; CX and R15 are the
// node's fiber cursor and end. LIST names the block's chunks and MULTI its
// sum of a longer or empty fiber.
#define FOLDPASS(LIST, MULTI) \
	PASSARGS; \
	VXORPD  X7, X7, X7; \
node: \
	MOVQ    n-8(SP), AX; \
	CMPQ    AX, nend-24(SP); \
	JGE     done; \
	NODEWIN(R15); \
	CMPQ    mode-16(SP), $const_foldRun; \
	JNE     zero; \
	LIST(TLOAD, TLOADM, HLOAD); \
	JMP     fiber; \
zero: \
	LIST(TZERO, TZERO, HZERO); \
fiber: \
	CMPQ    CX, R15; \
	JEQ     end; \
	LEAFWIN; \
	MOVQ    MIDS(DI), DX; \
	ROW((DX)(CX*4), DX, kernelArgs_frows(DI), R11); \
	INCQ    CX; \
	CMPQ    BX, $1; \
	JNE     multi; \
	ROW((R9), AX, kernelArgs_lrows(DI), R10); \
	VBROADCASTSD (R8), Y4; \
	LIST(FONE, FONEM, HONE); \
	JMP     fiber; \
multi: \
	MULTI; \
	JMP     fiber; \
end: \
	MOVQ    n-8(SP), AX; \
	INCQ    n-8(SP); \
	CMPQ    mode-16(SP), $const_foldHad; \
	JEQ     had; \
	JGT     out; \
	LIST(TSTORE, TSTOREM, HSTORE); \
	JMP     node; \
had: \
	MOVQ    NIDS(DI), BX; \
	ROW((BX)(AX*4), AX, kernelArgs_nrows(DI), kernelArgs_nm(DI)); \
	ADDQ    R13, AX; \
	LIST(THAD, THADM, HHAD); \
	JMP     node; \
out: \
	MOVQ    NIDS(DI), BX; \
	ROW((BX)(AX*4), BX, kernelArgs_nrows(DI), R14); \
	MOVQ    kernelArgs_vec(DI), AX; \
	ADDQ    R13, AX; \
	LIST(TOUT, TOUTM, HOUT); \
	JMP     node; \
done: \
	MOVQ    $1, AX; \
	RET; \
bad: \
	XORQ    AX, AX; \
	RET

// FWALK sums a fiber's BX leaves (R8, R9) into LIST's registers, leaf by
// leaf.
#define FWALK(LEAF, DONE, LIST) \
	XORQ    SI, SI; \
	TESTQ   BX, BX; \
	JEQ     DONE; \
LEAF: \
	ROW((R9)(SI*4), AX, kernelArgs_lrows(DI), R10); \
	VBROADCASTSD (R8)(SI*8), Y4; \
	LIST(FADD, FADDM, FADD); \
	INCQ    SI; \
	CMPQ    SI, BX; \
	JLT     LEAF; \
DONE:

// FSUM spills the accumulators of LIST's chunks, sums a fiber's leaves
// in their registers from +0 and folds the sums with the fiber's row into
// them. FSUM64 first sums a 64-column block's second 32 columns and
// folds them into the stack accumulator, then does as FSUM for the first.
#define FSUM(LIST) \
	LIST(FSPILL, FSPILL, FSPILL); \
	LIST(TZERO, TZERO, TZERO); \
	FWALK(leaf, fold, LIST); \
	LIST(FFOLD, FFOLDM, FFOLD)

#define FSUM64 \
	F32(FSPILL, FSPILL, FSPILL); \
	FH64(TZERO, TZERO, TZERO); \
	FWALK(leafhi, foldhi, FH64); \
	FH64(HFOLD, HFOLD, HFOLD); \
	F32(TZERO, TZERO, TZERO); \
	FWALK(leaf, fold, F32); \
	F32(FFOLD, FFOLD, FFOLD)

// The fold passes' frames hold the 256-byte spill area at the hardware
// SP (and fold64<>'s stack accumulator above it), under PASSARGS' 40
// bytes of locals.
TEXT fold64<>(SB), NOSPLIT, $552
	FOLDPASS(F64, FSUM64)

TEXT fold32<>(SB), NOSPLIT, $296
	FOLDPASS(F32, FSUM(F32))

TEXT fold20<>(SB), NOSPLIT, $296
	FOLDPASS(F20, FSUM(F20))

TEXT foldm1<>(SB), NOSPLIT, $296
	FOLDPASS(FM1, FSUM(FM1))

TEXT foldm2<>(SB), NOSPLIT, $296
	FOLDPASS(FM2, FSUM(FM2))

TEXT foldm3<>(SB), NOSPLIT, $296
	FOLDPASS(FM3, FSUM(FM3))

TEXT foldm4<>(SB), NOSPLIT, $296
	FOLDPASS(FM4, FSUM(FM4))

TEXT foldm5<>(SB), NOSPLIT, $296
	FOLDPASS(FM5, FSUM(FM5))

TEXT foldm6<>(SB), NOSPLIT, $296
	FOLDPASS(FM6, FSUM(FM6))

TEXT foldm7<>(SB), NOSPLIT, $296
	FOLDPASS(FM7, FSUM(FM7))

TEXT foldm8<>(SB), NOSPLIT, $296
	FOLDPASS(FM8, FSUM(FM8))

// PUSHPASS is one column block of pushAsm or scatterAsm over the nodes
// and fiber window PASSARGS saves. R10 and R11 are the leaf and fiber
// matrices (one of them the output), R14 the scratch t; n-8 holds the
// node cursor and mode-16 the push flag; CX and SI are the node's fiber
// cursor and end, R15 is w. With push, each node sets t = a ⊙ h chunk by
// chunk. FIBER is the block's work for one fiber, with DX the fiber's
// row.
#define PUSHPASS(LIST, FIBER) \
	PASSARGS; \
	MOVQ    R14, R15; \
	TESTQ   SI, SI; \
	JNE     node; \
	MOVQ    kernelArgs_vec(DI), R15; \
	ADDQ    R13, R15; \
node: \
	MOVQ    n-8(SP), AX; \
	CMPQ    AX, nend-24(SP); \
	JGE     done; \
	INCQ    n-8(SP); \
	NODEWIN(SI); \
	CMPQ    mode-16(SP), $0; \
	JEQ     fiber; \
	MOVQ    NIDS(DI), BX; \
	ROW((BX)(AX*4), AX, kernelArgs_nrows(DI), kernelArgs_nm(DI)); \
	ADDQ    R13, AX; \
	MOVQ    kernelArgs_vec(DI), BX; \
	ADDQ    R13, BX; \
	LIST(PT, PTM); \
fiber: \
	CMPQ    CX, SI; \
	JEQ     node; \
	LEAFWIN; \
	MOVQ    MIDS(DI), DX; \
	ROW((DX)(CX*4), DX, kernelArgs_frows(DI), R11); \
	INCQ    CX; \
	FIBER; \
	JMP     fiber; \
done: \
	MOVQ    $1, AX; \
	RET; \
bad: \
	XORQ    AX, AX; \
	RET

// PUSHFIB sums a fiber's BX leaves (R8, R9) into LIST's registers from
// +0 and adds the sum ⊙ w into the fiber's output row.
#define PUSHFIB(LEAF, FOLD, LIST) \
	LIST(PZERO, PZERO); \
	TESTQ   BX, BX; \
	JEQ     FOLD; \
LEAF: \
	ROW((R9), AX, kernelArgs_lrows(DI), R10); \
	VBROADCASTSD (R8), Y8; \
	LIST(PSUM, PSUMM); \
	ADDQ    $8, R8; \
	ADDQ    $4, R9; \
	DECQ    BX; \
	JNZ     LEAF; \
FOLD: \
	LIST(PFOLD, PFOLDM)

// SCATFIB sets k = w ⊙ m in LIST's registers and adds val·k into each of
// the fiber's BX leaves' rows (R8, R9).
#define SCATFIB(LEAF, LIST) \
	LIST(SK, SKM); \
	TESTQ   BX, BX; \
	JEQ     fiber; \
LEAF: \
	ROW((R9), AX, kernelArgs_lrows(DI), R10); \
	VBROADCASTSD (R8), Y8; \
	LIST(SSCAT, SSCATM); \
	ADDQ    $8, R8; \
	ADDQ    $4, R9; \
	DECQ    BX; \
	JNZ     LEAF

// HALVES runs a 64-column block's fiber body as two 32-column halves,
// each over every leaf of the fiber, so the fiber's window and id are
// read once for both; lv-48, li-56 and ln-64 keep the leaf window for the
// second half.
#define HALVES(LO, HI) \
	MOVQ    R8, lv-48(SP); \
	MOVQ    R9, li-56(SP); \
	MOVQ    BX, ln-64(SP); \
	LO; \
	MOVQ    lv-48(SP), R8; \
	MOVQ    li-56(SP), R9; \
	MOVQ    ln-64(SP), BX; \
	HI

#define PUSH(LIST) PUSHPASS(LIST, PUSHFIB(leaf, fold, LIST))
#define SCAT(LIST) PUSHPASS(LIST, SCATFIB(leaf, LIST))

TEXT push64<>(SB), NOSPLIT, $64
	PUSHPASS(P64, HALVES(PUSHFIB(leaf0, fold0, P32), PUSHFIB(leaf1, fold1, P32HI)))

TEXT push32<>(SB), NOSPLIT, $40
	PUSH(P32)

TEXT push20<>(SB), NOSPLIT, $40
	PUSH(P20)

TEXT pushm1<>(SB), NOSPLIT, $40
	PUSH(PM1)

TEXT pushm2<>(SB), NOSPLIT, $40
	PUSH(PM2)

TEXT pushm3<>(SB), NOSPLIT, $40
	PUSH(PM3)

TEXT pushm4<>(SB), NOSPLIT, $40
	PUSH(PM4)

TEXT pushm5<>(SB), NOSPLIT, $40
	PUSH(PM5)

TEXT pushm6<>(SB), NOSPLIT, $40
	PUSH(PM6)

TEXT pushm7<>(SB), NOSPLIT, $40
	PUSH(PM7)

TEXT pushm8<>(SB), NOSPLIT, $40
	PUSH(PM8)

TEXT scatter64<>(SB), NOSPLIT, $64
	PUSHPASS(P64, HALVES(SCATFIB(leaf0, P32), SCATFIB(leaf1, P32HI)))

TEXT scatter32<>(SB), NOSPLIT, $40
	SCAT(P32)

TEXT scatter20<>(SB), NOSPLIT, $40
	SCAT(P20)

TEXT scatterm1<>(SB), NOSPLIT, $40
	SCAT(PM1)

TEXT scatterm2<>(SB), NOSPLIT, $40
	SCAT(PM2)

TEXT scatterm3<>(SB), NOSPLIT, $40
	SCAT(PM3)

TEXT scatterm4<>(SB), NOSPLIT, $40
	SCAT(PM4)

TEXT scatterm5<>(SB), NOSPLIT, $40
	SCAT(PM5)

TEXT scatterm6<>(SB), NOSPLIT, $40
	SCAT(PM6)

TEXT scatterm7<>(SB), NOSPLIT, $40
	SCAT(PM7)

TEXT scatterm8<>(SB), NOSPLIT, $40
	SCAT(PM8)

// The block setups of the three families: the leaf matrix (R10), the
// fiber matrix (R11), the written vector or matrix of a fold-up or the
// scratch t (R14), each offset to the block, and the mode (SI).
#define FOLDSETUP \
	MOVQ    kernelArgs_lm(DI), R10; \
	ADDQ    R13, R10; \
	MOVQ    kernelArgs_fm(DI), R11; \
	ADDQ    R13, R11; \
	MOVQ    v-16(SP), R14; \
	ADDQ    R13, R14; \
	MOVQ    md-32(SP), SI

#define PUSHSETUP \
	MOVQ    kernelArgs_lm(DI), R10; \
	ADDQ    R13, R10; \
	MOVQ    out-16(SP), R11; \
	ADDQ    R13, R11; \
	MOVQ    t-24(SP), R14; \
	ADDQ    R13, R14; \
	MOVQ    md-32(SP), SI

#define SCATSETUP \
	MOVQ    out-16(SP), R10; \
	ADDQ    R13, R10; \
	MOVQ    kernelArgs_fm(DI), R11; \
	ADDQ    R13, R11; \
	MOVQ    t-24(SP), R14; \
	ADDQ    R13, R14; \
	MOVQ    md-32(SP), SI

// func foldAsm(a *kernelArgs, v []float64, mode uint8) (ok bool)
TEXT ·foldAsm(SB), NOSPLIT, $48-41
	MOVQ    a+0(FP), DI
	MOVQ    v_base+8(FP), AX
	MOVQ    AX, v-16(SP)
	MOVBQZX mode+32(FP), AX
	MOVQ    AX, md-32(SP)
	BLOCKS(FOLDSETUP, fold64<>, fold32<>, fold20<>, foldm1<>, foldm2<>, foldm3<>, foldm4<>, foldm5<>, foldm6<>, foldm7<>, foldm8<>)
	VZEROUPPER
	MOVB    $1, ok+40(FP)
	RET

bad:
	VZEROUPPER
	MOVB    $0, ok+40(FP)
	RET

// func pushAsm(a *kernelArgs, out, t []float64, push bool) (ok bool)
TEXT ·pushAsm(SB), NOSPLIT, $48-65
	MOVQ    a+0(FP), DI
	MOVQ    out_base+8(FP), AX
	MOVQ    AX, out-16(SP)
	MOVQ    t_base+32(FP), AX
	MOVQ    AX, t-24(SP)
	MOVBQZX push+56(FP), AX
	MOVQ    AX, md-32(SP)
	BLOCKS(PUSHSETUP, push64<>, push32<>, push20<>, pushm1<>, pushm2<>, pushm3<>, pushm4<>, pushm5<>, pushm6<>, pushm7<>, pushm8<>)
	VZEROUPPER
	MOVB    $1, ok+64(FP)
	RET

bad:
	VZEROUPPER
	MOVB    $0, ok+64(FP)
	RET

// func scatterAsm(a *kernelArgs, out, t []float64, push bool) (ok bool)
TEXT ·scatterAsm(SB), NOSPLIT, $48-65
	MOVQ    a+0(FP), DI
	MOVQ    out_base+8(FP), AX
	MOVQ    AX, out-16(SP)
	MOVQ    t_base+32(FP), AX
	MOVQ    AX, t-24(SP)
	MOVBQZX push+56(FP), AX
	MOVQ    AX, md-32(SP)
	BLOCKS(SCATSETUP, scatter64<>, scatter32<>, scatter20<>, scatterm1<>, scatterm2<>, scatterm3<>, scatterm4<>, scatterm5<>, scatterm6<>, scatterm7<>, scatterm8<>)
	VZEROUPPER
	MOVB    $1, ok+64(FP)
	RET

bad:
	VZEROUPPER
	MOVB    $0, ok+64(FP)
	RET

// FIBBLOCK is one column block of fiberAsm: the fiber's CX leaves summed
// from +0 in LIST's registers, stored to child (SI), then, with fold,
// added ⊙ g (R15) into dst (DX). R10 is f offset to the block, R11 its
// row count; vals-16 and fids-24 hold the leaf window, fold-8 the flag.
#define FIBBLOCK(LEAF, STORE, NEXT, LIST) \
	LIST(PZERO, PZERO); \
	MOVQ    vals-16(SP), R8; \
	MOVQ    fids-24(SP), R9; \
	MOVQ    CX, BX; \
	TESTQ   BX, BX; \
	JEQ     STORE; \
LEAF: \
	ROW((R9), AX, R11, R10); \
	VBROADCASTSD (R8), Y8; \
	LIST(PSUM, PSUMM); \
	ADDQ    $8, R8; \
	ADDQ    $4, R9; \
	DECQ    BX; \
	JNZ     LEAF; \
STORE: \
	LIST(PSTORE, PSTOREM); \
	CMPQ    fold-8(SP), $0; \
	JEQ     NEXT; \
	LIST(PFOLD, PFOLDM); \
NEXT:

// NEXTBLOCK moves fiberAsm's cursors W bytes on.
#define NEXTBLOCK(W) \
	ADDQ    W, R13; \
	ADDQ    W, R10; \
	ADDQ    W, SI; \
	ADDQ    W, DX; \
	ADDQ    W, R15

// func fiberAsm(dst, child, g, vals []float64, fids []int32, f []float64, rows int, fold bool) (ok bool)
//
// fiberAsm runs 32-column blocks, then a 16-column block and 4-column ones
// while they fit, then the last one to three columns as one masked chunk.
TEXT ·fiberAsm(SB), NOSPLIT, $24-161
	MOVQ    child_len+32(FP), R12
	SHLQ    $3, R12
	XORQ    R13, R13
	MOVQ    dst_base+0(FP), DX
	MOVQ    child_base+24(FP), SI
	MOVQ    g_base+48(FP), R15
	MOVQ    vals_base+72(FP), AX
	MOVQ    AX, vals-16(SP)
	MOVQ    vals_len+80(FP), CX
	MOVQ    fids_base+96(FP), AX
	MOVQ    AX, fids-24(SP)
	MOVQ    f_base+120(FP), R10
	MOVQ    rows+144(FP), R11
	MOVBQZX fold+152(FP), AX
	MOVQ    AX, fold-8(SP)

fiber32:
	MOVQ    R12, AX
	SUBQ    R13, AX
	CMPQ    AX, $256
	JLT     fiber16
	FIBBLOCK(leaf32, store32, next32, P32)
	NEXTBLOCK($256)
	JMP     fiber32

fiber16:
	CMPQ    AX, $128
	JLT     fiber4
	FIBBLOCK(leaf16, store16, next16, P16)
	NEXTBLOCK($128)

fiber4:
	MOVQ    R12, AX
	SUBQ    R13, AX
	CMPQ    AX, $32
	JLT     fiber1
	FIBBLOCK(leaf4, store4, next4, P4)
	NEXTBLOCK($32)
	JMP     fiber4

fiber1:
	TESTQ   AX, AX
	JEQ     fiberDone
	MOVQ    CX, R8
	MASK
	MOVQ    R8, CX
	FIBBLOCK(leaf1, store1, next1, PM1)

fiberDone:
	VZEROUPPER
	MOVB    $1, ok+160(FP)
	RET

bad:
	VZEROUPPER
	MOVB    $0, ok+160(FP)
	RET
