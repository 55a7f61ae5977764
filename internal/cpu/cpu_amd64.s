#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID leaf 7 reports it (EBX bit 5), leaf 1 reports
// AVX and OSXSAVE (ECX bits 28 and 27), and XGETBV shows the OS saves the
// XMM and YMM state (XCR0 bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL    AX, AX
	CPUID
	CMPL    AX, $7
	JLT     no
	MOVL    $1, AX
	XORL    CX, CX
	CPUID
	ANDL    $0x18000000, CX
	CMPL    CX, $0x18000000
	JNE     no
	XORL    CX, CX
	XGETBV
	ANDL    $6, AX
	CMPL    AX, $6
	JNE     no
	MOVL    $7, AX
	XORL    CX, CX
	CPUID
	ANDL    $0x20, BX
	JZ      no
	MOVB    $1, ret+0(FP)
	RET

no:
	MOVB    $0, ret+0(FP)
	RET
