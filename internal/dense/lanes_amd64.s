#include "textflag.h"

// AVX2 kernels of the dense ALS update (lanes_amd64.go, lanes.go). Every
// lane repeats the scalar Go passes' arithmetic on one element, in the
// same order: a VMULPD then a VSUBPD or VADDPD (never an FMA), VDIVPD for
// divides, a compare-and-mask clamp, so each result is bit-identical to
// solve4, solvePass, foldStat and scalePass. Partial four-column blocks
// use VMASKMOVPD, which neither reads nor writes the masked elements.
//
// The lane buffer b holds 16 right-hand sides in lane order: b[k*16+j]
// is component k of lane j, so one 128-byte line holds component k of
// all 16 lanes and four YMM registers hold it in a row.

// lanemask<>+8*(3-t) is the mask of the first t of four elements.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $0
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $48

// absmask<> clears the sign bit, as math.Abs does.
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// TAILMASK loads into Y the mask of the first n&3 elements (n in R),
// clobbering R and R13. Only used when n&3 != 0.
#define TAILMASK(R, Y) \
	ANDQ   $3, R; \
	NEGQ   R; \
	ADDQ   $3, R; \
	LEAQ   lanemask<>(SB), R13; \
	VMOVUPD (R13)(R*8), Y

// TRANSPOSE turns the four rows Y0..Y3 of a 4x4 block into its four
// columns, in place, through Y4..Y7.
#define TRANSPOSE \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// CLAMP zeroes the negative elements of V when Y14 is all ones (it is
// all zeros without the clamp): v < 0 is false for −0 and NaN, which the
// Go clamp keeps too. Y15 is zero.
#define CLAMP(V) \
	VCMPPD  $0x11, Y15, V, Y9; \
	VANDPD  Y14, Y9, Y9; \
	VANDNPD V, Y9, V

// SUMSQ folds V into the column sums of squares Y8: st + v·v.
#define SUMSQ(V) \
	VMULPD V, V, Y9; \
	VADDPD Y9, Y8, Y8

// MAXABS folds V into the column max magnitudes Y8: st = |v| where
// |v| > st, which is false when either is NaN. Y13 is the abs mask.
#define MAXABS(V) \
	VANDPD    Y13, V, Y9; \
	VCMPPD    $0x1e, Y8, Y9, Y10; \
	VBLENDVPD Y10, Y9, Y8, Y8

// DOT adds the row V times the input row still at P (read before V is
// stored over it) into the four partial sums at A: p_j += x·v for the
// columns of residue j. Y9 is clobbered.
#define DOT(P, V, A) \
	VMULPD  (P), V, Y9; \
	VADDPD  A, Y9, Y9; \
	VMOVUPD Y9, A

// DOTM is DOT for the last r&3 columns, under the mask in Y12: the masked
// columns of V are zero, and so are those of the loaded x.
#define DOTM(P, V, A) \
	VMASKMOVPD (P), Y12, Y9; \
	VMULPD     Y9, V, Y9; \
	VADDPD     A, Y9, Y9; \
	VMOVUPD    Y9, A

// ROWSUM adds one row's ⟨x, â⟩, (p0+p1)+(p2+p3) from its partial sums at
// P0..P3, to the running sum in X11, as rowDot and solvePass do.
#define ROWSUM(P0, P1, P2, P3) \
	VMOVSD P0, X9; \
	VADDSD P1, X9, X9; \
	VMOVSD P2, X10; \
	VADDSD P3, X10, X10; \
	VADDSD X10, X9, X9; \
	VADDSD X9, X11, X11

// ROWPTRS loads into R8..R11 the addresses base + 8·off[i] of the next
// four rows (off in DX, base in BASE) while fewer than CX remain; the
// others keep DEF.
#define ROWPTRS(BASE, DEF) \
	MOVQ DEF, R8; \
	MOVQ DEF, R9; \
	MOVQ DEF, R10; \
	MOVQ DEF, R11; \
	CMPQ CX, $1; \
	JLT  3(PC); \
	MOVQ 0(DX), R8; \
	LEAQ (BASE)(R8*8), R8; \
	CMPQ CX, $2; \
	JLT  3(PC); \
	MOVQ 8(DX), R9; \
	LEAQ (BASE)(R9*8), R9; \
	CMPQ CX, $3; \
	JLT  3(PC); \
	MOVQ 16(DX), R10; \
	LEAQ (BASE)(R10*8), R10; \
	CMPQ CX, $4; \
	JLT  3(PC); \
	MOVQ 24(DX), R11; \
	LEAQ (BASE)(R11*8), R11

// func gatherLanesAVX2(b, src []float64, off []int)
//
// Fills all 16 lanes of b (len 16·r) with rows of src: lane j < len(off)
// gets the row at src[off[j]:][:r], and every later lane repeats the last
// of them. len(off) is 1 to 16.
TEXT ·gatherLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ b_base+0(FP), DI
	MOVQ b_len+8(FP), BX
	SHRQ $4, BX
	MOVQ src_base+24(FP), SI
	MOVQ off_base+48(FP), DX
	MOVQ off_len+56(FP), CX
	MOVQ -8(DX)(CX*8), R14
	LEAQ (SI)(R14*8), R14 // the last row, for the padding lanes
	MOVQ BX, AX
	TESTQ $3, AX
	JZ   gnomask
	TAILMASK(AX, Y12)

gnomask:
	MOVQ $4, AX

ggroup:
	ROWPTRS(SI, R14)
	MOVQ BX, R12
	MOVQ DI, R13

gcol4:
	CMPQ    R12, $4
	JLT     gtail
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	TRANSPOSE
	VMOVUPD Y0, 0(R13)
	VMOVUPD Y1, 128(R13)
	VMOVUPD Y2, 256(R13)
	VMOVUPD Y3, 384(R13)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $512, R13
	SUBQ    $4, R12
	JMP     gcol4

gtail:
	TESTQ      R12, R12
	JZ         gnext
	VMASKMOVPD (R8), Y12, Y0
	VMASKMOVPD (R9), Y12, Y1
	VMASKMOVPD (R10), Y12, Y2
	VMASKMOVPD (R11), Y12, Y3
	TRANSPOSE
	VMOVUPD    Y0, 0(R13)
	CMPQ       R12, $2
	JLT        gnext
	VMOVUPD    Y1, 128(R13)
	CMPQ       R12, $3
	JLT        gnext
	VMOVUPD    Y2, 256(R13)

gnext:
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	DECQ AX
	JNZ  ggroup
	VZEROUPPER
	RET

// func solveLanesAVX2(b, l, lt []float64)
//
// Overwrites the 16 right-hand sides in b (len 16·n) with the solutions
// of L·Lᵀ·x = b for the n×n lower-triangular l and its transpose lt:
// solve4's forward and back substitution, with four lanes per register.
TEXT ·solveLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ b_base+0(FP), DI
	MOVQ b_len+8(FP), CX
	SHRQ $4, CX
	MOVQ l_base+24(FP), SI
	MOVQ lt_base+48(FP), DX

	// Forward substitution L·y = b. R8 = i, R9 = &b[i], R10 = &l[i·n].
	XORQ R8, R8
	MOVQ DI, R9
	MOVQ SI, R10

fwdrow:
	CMPQ    R8, CX
	JGE     back
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	MOVQ    DI, R11
	XORQ    R12, R12

fwdk:
	CMPQ         R12, R8
	JGE          fwddiv
	VBROADCASTSD (R10)(R12*8), Y4
	VMULPD       0(R11), Y4, Y5
	VMULPD       32(R11), Y4, Y6
	VMULPD       64(R11), Y4, Y7
	VMULPD       96(R11), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $128, R11
	INCQ         R12
	JMP          fwdk

fwddiv:
	VBROADCASTSD (R10)(R8*8), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, 0(R9)
	VMOVUPD      Y1, 32(R9)
	VMOVUPD      Y2, 64(R9)
	VMOVUPD      Y3, 96(R9)
	INCQ         R8
	ADDQ         $128, R9
	LEAQ         (R10)(CX*8), R10
	JMP          fwdrow

	// Back substitution Lᵀ·x = y, rows i = n-1 down to 0. R9 = &b[i],
	// R10 = &lt[i·n]; k runs from i+1 to n-1.
back:
	MOVQ CX, R8
	DECQ R8
	JL   done
	MOVQ R8, AX
	SHLQ $7, AX
	LEAQ (DI)(AX*1), R9
	MOVQ R8, AX
	IMULQ CX, AX
	LEAQ (DX)(AX*8), R10

backrow:
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	LEAQ    128(R9), R11
	LEAQ    1(R8), R12

backk:
	CMPQ         R12, CX
	JGE          backdiv
	VBROADCASTSD (R10)(R12*8), Y4
	VMULPD       0(R11), Y4, Y5
	VMULPD       32(R11), Y4, Y6
	VMULPD       64(R11), Y4, Y7
	VMULPD       96(R11), Y4, Y8
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	VSUBPD       Y7, Y2, Y2
	VSUBPD       Y8, Y3, Y3
	ADDQ         $128, R11
	INCQ         R12
	JMP          backk

backdiv:
	VBROADCASTSD (R10)(R8*8), Y4
	VDIVPD       Y4, Y0, Y0
	VDIVPD       Y4, Y1, Y1
	VDIVPD       Y4, Y2, Y2
	VDIVPD       Y4, Y3, Y3
	VMOVUPD      Y0, 0(R9)
	VMOVUPD      Y1, 32(R9)
	VMOVUPD      Y2, 64(R9)
	VMOVUPD      Y3, 96(R9)
	SUBQ         $128, R9
	MOVQ         CX, AX
	SHLQ         $3, AX
	SUBQ         AX, R10
	DECQ         R8
	JGE          backrow

done:
	VZEROUPPER
	RET

// func scatterLanesAVX2(dst, b []float64, off []int, stats []float64, clamp bool, stat colStat, inner float64) float64
//
// Writes lane j < len(off) of b (len 16·r) to the row dst[off[j]:][:r],
// zeroing its negative elements when clamp is set, and folds the rows in
// lane order into stats (len r): Σ v² for statSumSq, max |v| for
// statMaxAbs, untouched for statNone. Before it overwrites a row it adds
// the row it read there times the clamped lane into four per-lane partial
// sums, one per column residue; it returns inner plus each lane's
// (p0+p1)+(p2+p3), added in lane order.
//
// Frame: the partial sums of the four lanes of a group, 32 bytes each.
TEXT ·scatterLanesAVX2(SB), NOSPLIT, $128-128
	VMOVSD  inner+112(FP), X11
	MOVQ    dst_base+0(FP), DI
	MOVQ    b_base+24(FP), SI
	MOVQ    b_len+32(FP), BX
	SHRQ    $4, BX
	MOVQ    off_base+48(FP), DX
	MOVQ    off_len+56(FP), CX
	MOVQ    stat+104(FP), AX
	VXORPD  Y15, Y15, Y15
	VXORPD  Y14, Y14, Y14
	MOVBLZX clamp+96(FP), R12
	TESTQ   R12, R12
	JZ      snoclamp
	VCMPPD  $0, Y15, Y15, Y14

snoclamp:
	VBROADCASTSD absmask<>(SB), Y13
	MOVQ    BX, R12
	TESTQ   $3, R12
	JZ      sgroup
	TAILMASK(R12, Y12)

sgroup:
	TESTQ CX, CX
	JLE   sdone
	ROWPTRS(DI, DI)
	MOVQ  stats_base+72(FP), R12
	MOVQ  SI, R14
	MOVQ  BX, R13
	VMOVUPD Y15, 0(SP)
	VMOVUPD Y15, 32(SP)
	VMOVUPD Y15, 64(SP)
	VMOVUPD Y15, 96(SP)

scol4:
	CMPQ    R13, $4
	JLT     stail
	VMOVUPD 0(R14), Y0
	VMOVUPD 128(R14), Y1
	VMOVUPD 256(R14), Y2
	VMOVUPD 384(R14), Y3
	TRANSPOSE
	CLAMP(Y0)
	CLAMP(Y1)
	CLAMP(Y2)
	CLAMP(Y3)
	DOT(R8, Y0, 0(SP))
	CMPQ    CX, $1
	JLE     sdot4
	DOT(R9, Y1, 32(SP))
	CMPQ    CX, $2
	JLE     sdot4
	DOT(R10, Y2, 64(SP))
	CMPQ    CX, $3
	JLE     sdot4
	DOT(R11, Y3, 96(SP))

sdot4:
	CMPQ    AX, $1
	JEQ     ssq4
	JGT     smax4
	VMOVUPD Y0, (R8)
	CMPQ    CX, $1
	JLE     snext4
	VMOVUPD Y1, (R9)
	CMPQ    CX, $2
	JLE     snext4
	VMOVUPD Y2, (R10)
	CMPQ    CX, $3
	JLE     snext4
	VMOVUPD Y3, (R11)
	JMP     snext4

ssq4:
	VMOVUPD (R12), Y8
	SUMSQ(Y0)
	VMOVUPD Y0, (R8)
	CMPQ    CX, $1
	JLE     ssq4end
	SUMSQ(Y1)
	VMOVUPD Y1, (R9)
	CMPQ    CX, $2
	JLE     ssq4end
	SUMSQ(Y2)
	VMOVUPD Y2, (R10)
	CMPQ    CX, $3
	JLE     ssq4end
	SUMSQ(Y3)
	VMOVUPD Y3, (R11)

ssq4end:
	VMOVUPD Y8, (R12)
	JMP     snext4

smax4:
	VMOVUPD (R12), Y8
	MAXABS(Y0)
	VMOVUPD Y0, (R8)
	CMPQ    CX, $1
	JLE     smax4end
	MAXABS(Y1)
	VMOVUPD Y1, (R9)
	CMPQ    CX, $2
	JLE     smax4end
	MAXABS(Y2)
	VMOVUPD Y2, (R10)
	CMPQ    CX, $3
	JLE     smax4end
	MAXABS(Y3)
	VMOVUPD Y3, (R11)

smax4end:
	VMOVUPD Y8, (R12)

snext4:
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $512, R14
	SUBQ $4, R13
	JMP  scol4

	// The last r&3 columns: the missing lane lines read as zero and the
	// masked stores write only the real columns.
stail:
	TESTQ   R13, R13
	JZ      sgroupend
	VMOVUPD 0(R14), Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	CMPQ    R13, $2
	JLT     stailt
	VMOVUPD 128(R14), Y1
	CMPQ    R13, $3
	JLT     stailt
	VMOVUPD 256(R14), Y2

stailt:
	TRANSPOSE
	CLAMP(Y0)
	CLAMP(Y1)
	CLAMP(Y2)
	CLAMP(Y3)
	DOTM(R8, Y0, 0(SP))
	CMPQ       CX, $1
	JLE        sdott
	DOTM(R9, Y1, 32(SP))
	CMPQ       CX, $2
	JLE        sdott
	DOTM(R10, Y2, 64(SP))
	CMPQ       CX, $3
	JLE        sdott
	DOTM(R11, Y3, 96(SP))

sdott:
	CMPQ       AX, $1
	JEQ        ssqt
	JGT        smaxt
	VMASKMOVPD Y0, Y12, (R8)
	CMPQ       CX, $1
	JLE        sgroupend
	VMASKMOVPD Y1, Y12, (R9)
	CMPQ       CX, $2
	JLE        sgroupend
	VMASKMOVPD Y2, Y12, (R10)
	CMPQ       CX, $3
	JLE        sgroupend
	VMASKMOVPD Y3, Y12, (R11)
	JMP        sgroupend

ssqt:
	VMASKMOVPD (R12), Y12, Y8
	SUMSQ(Y0)
	VMASKMOVPD Y0, Y12, (R8)
	CMPQ       CX, $1
	JLE        ssqtend
	SUMSQ(Y1)
	VMASKMOVPD Y1, Y12, (R9)
	CMPQ       CX, $2
	JLE        ssqtend
	SUMSQ(Y2)
	VMASKMOVPD Y2, Y12, (R10)
	CMPQ       CX, $3
	JLE        ssqtend
	SUMSQ(Y3)
	VMASKMOVPD Y3, Y12, (R11)

ssqtend:
	VMASKMOVPD Y8, Y12, (R12)
	JMP        sgroupend

smaxt:
	VMASKMOVPD (R12), Y12, Y8
	MAXABS(Y0)
	VMASKMOVPD Y0, Y12, (R8)
	CMPQ       CX, $1
	JLE        smaxtend
	MAXABS(Y1)
	VMASKMOVPD Y1, Y12, (R9)
	CMPQ       CX, $2
	JLE        smaxtend
	MAXABS(Y2)
	VMASKMOVPD Y2, Y12, (R10)
	CMPQ       CX, $3
	JLE        smaxtend
	MAXABS(Y3)
	VMASKMOVPD Y3, Y12, (R11)

smaxtend:
	VMASKMOVPD Y8, Y12, (R12)

	// Each real lane's sum, in lane order.
sgroupend:
	ROWSUM(0(SP), 8(SP), 16(SP), 24(SP))
	CMPQ CX, $1
	JLE  snextgroup
	ROWSUM(32(SP), 40(SP), 48(SP), 56(SP))
	CMPQ CX, $2
	JLE  snextgroup
	ROWSUM(64(SP), 72(SP), 80(SP), 88(SP))
	CMPQ CX, $3
	JLE  snextgroup
	ROWSUM(96(SP), 104(SP), 112(SP), 120(SP))

snextgroup:
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  sgroup

sdone:
	VMOVSD X11, ret+120(FP)
	VZEROUPPER
	RET

// func divRowsAVX2(rows, norms []float64)
//
// Divides each whole row of rows (len(norms) wide) by norms elementwise.
TEXT ·divRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ  rows_base+0(FP), DI
	MOVQ  rows_len+8(FP), AX
	MOVQ  norms_base+24(FP), SI
	MOVQ  norms_len+32(FP), BX
	TESTQ BX, BX
	JZ    ddone
	MOVQ  BX, R12
	TESTQ $3, R12
	JZ    drow
	TAILMASK(R12, Y12)

drow:
	CMPQ AX, BX
	JLT  ddone
	SUBQ BX, AX
	MOVQ SI, R8
	MOVQ BX, CX

d4:
	CMPQ    CX, $4
	JLT     dtail
	VMOVUPD (DI), Y0
	VDIVPD  (R8), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	JMP     d4

dtail:
	TESTQ      CX, CX
	JZ         drow
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD (R8), Y12, Y1
	VDIVPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y12, (DI)
	LEAQ       (DI)(CX*8), DI
	JMP        drow

ddone:
	VZEROUPPER
	RET

// func gram4AVX2(g, r0, r1, r2, r3 []float64)
//
// Adds the rows r0..r3 (each r = len(r0) wide; an empty slice is an
// absent row) into the upper triangle of the r×r matrix g, row by row in
// that order: g[p][q] += v·row[q] for q ≥ p, where v = row[p], skipping a
// row whose v is zero. The rows with a non-zero v at p are added in one
// sweep over q, (g + a) + b rounding as adding them one at a time does.
// Each sweep starts at the four-aligned column below p, so it also adds
// into up to three elements left of the diagonal, which are not part of
// the result.
//
// Frame: 0..24 the compacted v's, 32..56 their rows, 64..88 the row
// bases (an absent row borrows r0's, masked out below).
TEXT ·gram4AVX2(SB), NOSPLIT, $96-120
	MOVQ    g_base+0(FP), DX
	MOVQ    r0_base+24(FP), R8
	MOVQ    r0_len+32(FP), R12
	MOVQ    R8, 64(SP)
	MOVQ    $1, SI
	MOVQ    r1_base+48(FP), R9
	MOVQ    r1_len+56(FP), AX
	TESTQ   AX, AX
	CMOVQEQ R8, R9
	JEQ     2(PC)
	ORQ     $2, SI
	MOVQ    R9, 72(SP)
	MOVQ    r2_base+72(FP), R9
	MOVQ    r2_len+80(FP), AX
	TESTQ   AX, AX
	CMOVQEQ R8, R9
	JEQ     2(PC)
	ORQ     $4, SI
	MOVQ    R9, 80(SP)
	MOVQ    r3_base+96(FP), R9
	MOVQ    r3_len+104(FP), AX
	TESTQ   AX, AX
	CMOVQEQ R8, R9
	JEQ     2(PC)
	ORQ     $8, SI
	MOVQ    R9, 88(SP)
	VXORPD  Y15, Y15, Y15
	MOVQ    R12, R14
	ANDQ    $-4, R14 // the last four-aligned column
	MOVQ    R12, AX
	TESTQ   $3, AX
	JZ      2(PC)
	TAILMASK(AX, Y14)
	XORQ    AX, AX // p

gp:
	CMPQ         AX, R12
	JGE          gdone
	MOVQ         64(SP), R8
	MOVQ         72(SP), R9
	MOVQ         80(SP), R10
	MOVQ         88(SP), R11
	VBROADCASTSD (R8)(AX*8), Y0
	VBROADCASTSD (R9)(AX*8), Y1
	VBROADCASTSD (R10)(AX*8), Y2
	VBROADCASTSD (R11)(AX*8), Y3
	VBLENDPD     $2, Y1, Y0, Y4
	VBLENDPD     $4, Y2, Y4, Y4
	VBLENDPD     $8, Y3, Y4, Y4
	VCMPPD       $4, Y15, Y4, Y4 // v != 0, true for NaN
	VMOVMSKPD    Y4, BX
	ANDQ         SI, BX
	JZ           gnextp
	MOVQ         AX, CX
	ANDQ         $-4, CX // q
	CMPQ         BX, $15
	JEQ          gq8

	// Compact the rows with a non-zero v into slots 0..BX-1, in order.
	XORQ   R13, R13
	TESTQ  $1, BX
	JZ     gc1
	VMOVSD X0, 0(SP)(R13*8)
	MOVQ   R8, 32(SP)(R13*8)
	INCQ   R13

gc1:
	TESTQ  $2, BX
	JZ     gc2
	VMOVSD X1, 0(SP)(R13*8)
	MOVQ   R9, 32(SP)(R13*8)
	INCQ   R13

gc2:
	TESTQ  $4, BX
	JZ     gc3
	VMOVSD X2, 0(SP)(R13*8)
	MOVQ   R10, 32(SP)(R13*8)
	INCQ   R13

gc3:
	TESTQ  $8, BX
	JZ     gc4
	VMOVSD X3, 0(SP)(R13*8)
	MOVQ   R11, 32(SP)(R13*8)
	INCQ   R13

gc4:
	MOVQ         R13, BX
	MOVQ         32(SP), R8
	MOVQ         40(SP), R9
	MOVQ         48(SP), R10
	MOVQ         56(SP), R11
	VBROADCASTSD 0(SP), Y0
	VBROADCASTSD 8(SP), Y1
	VBROADCASTSD 16(SP), Y2
	VBROADCASTSD 24(SP), Y3
	JMP          gq4

	// All four rows: eight columns per step, then the general loop.
gq8:
	LEAQ    8(CX), R13
	CMPQ    R13, R14
	JGT     gq8end
	VMOVUPD (DX)(CX*8), Y4
	VMOVUPD 32(DX)(CX*8), Y9
	VMULPD  (R8)(CX*8), Y0, Y5
	VMULPD  32(R8)(CX*8), Y0, Y10
	VADDPD  Y5, Y4, Y4
	VADDPD  Y10, Y9, Y9
	VMULPD  (R9)(CX*8), Y1, Y6
	VMULPD  32(R9)(CX*8), Y1, Y11
	VADDPD  Y6, Y4, Y4
	VADDPD  Y11, Y9, Y9
	VMULPD  (R10)(CX*8), Y2, Y7
	VMULPD  32(R10)(CX*8), Y2, Y12
	VADDPD  Y7, Y4, Y4
	VADDPD  Y12, Y9, Y9
	VMULPD  (R11)(CX*8), Y3, Y8
	VMULPD  32(R11)(CX*8), Y3, Y13
	VADDPD  Y8, Y4, Y4
	VADDPD  Y13, Y9, Y9
	VMOVUPD Y4, (DX)(CX*8)
	VMOVUPD Y9, 32(DX)(CX*8)
	ADDQ    $8, CX
	JMP     gq8

gq8end:
	MOVQ $4, BX

	// BX rows in slots 0..BX-1, four columns per step.
gq4:
	CMPQ    CX, R14
	JGE     gqtail
	VMOVUPD (DX)(CX*8), Y4
	VMULPD  (R8)(CX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	CMPQ    BX, $2
	JLT     gq4st
	VMULPD  (R9)(CX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	CMPQ    BX, $3
	JLT     gq4st
	VMULPD  (R10)(CX*8), Y2, Y7
	VADDPD  Y7, Y4, Y4
	CMPQ    BX, $4
	JLT     gq4st
	VMULPD  (R11)(CX*8), Y3, Y8
	VADDPD  Y8, Y4, Y4

gq4st:
	VMOVUPD Y4, (DX)(CX*8)
	ADDQ    $4, CX
	JMP     gq4

	// The last r&3 columns, under the mask in Y14.
gqtail:
	CMPQ       CX, R12
	JGE        gnextp
	VMASKMOVPD (DX)(CX*8), Y14, Y4
	VMASKMOVPD (R8)(CX*8), Y14, Y5
	VMULPD     Y5, Y0, Y5
	VADDPD     Y5, Y4, Y4
	CMPQ       BX, $2
	JLT        gqtst
	VMASKMOVPD (R9)(CX*8), Y14, Y6
	VMULPD     Y6, Y1, Y6
	VADDPD     Y6, Y4, Y4
	CMPQ       BX, $3
	JLT        gqtst
	VMASKMOVPD (R10)(CX*8), Y14, Y7
	VMULPD     Y7, Y2, Y7
	VADDPD     Y7, Y4, Y4
	CMPQ       BX, $4
	JLT        gqtst
	VMASKMOVPD (R11)(CX*8), Y14, Y8
	VMULPD     Y8, Y3, Y8
	VADDPD     Y8, Y4, Y4

gqtst:
	VMASKMOVPD Y4, Y14, (DX)(CX*8)

gnextp:
	INCQ AX
	LEAQ (DX)(R12*8), DX
	JMP  gp

gdone:
	VZEROUPPER
	RET
