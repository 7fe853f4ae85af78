#include "textflag.h"

// The four-lane Equation 5 kernel (plan_amd64.go). Every lane runs the
// scalar kernel's operations in its order — VMULPD and VADDPD are per-lane
// IEEE multiply and add, never fused — so each lane holds the bits
// propagate4Go writes.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// CPUID.1:ECX bit 27 is OSXSAVE, bit 28 AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func propagateClass4(deg int, lambda float64, nodes, src []graph.NodeID, coef []float64, pStar, prev, cur [][4]float64) bool
//
// CX deg, DI nodes, R8 nodes left, SI src, DX coef, R11 pStar,
// R13 prev, BX len(prev), R9 cur, R10 len(cur), R12 terms left.
// Y0 acc, Y4 0, Y5 1, Y6 λ, Y7 1−λ.
TEXT ·propagateClass4(SB), NOSPLIT, $0-161
	MOVQ deg+0(FP), CX
	MOVQ nodes_base+16(FP), DI
	MOVQ nodes_len+24(FP), R8
	MOVQ src_base+40(FP), SI
	MOVQ coef_base+64(FP), DX
	MOVQ pStar_base+88(FP), R11
	MOVQ prev_base+112(FP), R13
	MOVQ prev_len+120(FP), BX
	MOVQ cur_base+136(FP), R9
	MOVQ cur_len+144(FP), R10

	// The class spans deg·len(nodes) terms of src and coef; a negative
	// deg or an overflowing product compares above any length. A node
	// below len(cur) must be below len(pStar) too.
	MOVQ CX, AX
	IMULQ R8, AX
	JO   fail
	CMPQ AX, src_len+48(FP)
	JA   fail
	CMPQ AX, coef_len+72(FP)
	JA   fail
	CMPQ R10, pStar_len+96(FP)
	JA   fail

	VXORPD       Y4, Y4, Y4
	VBROADCASTSD one<>(SB), Y5
	VBROADCASTSD lambda+8(FP), Y6
	VSUBPD       Y6, Y5, Y7

	TESTQ R8, R8
	JZ    done

node:
	MOVLQSX (DI), AX
	CMPQ    AX, R10
	JAE     fail
	VXORPD  Y0, Y0, Y0
	MOVQ    CX, R12
	TESTQ   R12, R12
	JZ      finish

term:
	MOVLQSX      (SI), AX
	CMPQ         AX, BX
	JAE          fail
	SHLQ         $5, AX
	VBROADCASTSD (DX), Y1
	VMULPD       (R13)(AX*1), Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $8, DX
	DECQ         R12
	JNZ          term

finish:
	MOVLQSX (DI), AX
	SHLQ    $5, AX
	VMULPD  (R11)(AX*1), Y7, Y2
	VMULPD  Y0, Y6, Y0
	VADDPD  Y0, Y2, Y0
	// Clamp01: x < 0 → 0, then x > 1 → 1. Both compares are false on NaN
	// and −0 < 0 is false, so those pass through unchanged.
	VCMPPD    $0x11, Y4, Y0, Y3
	VBLENDVPD Y3, Y4, Y0, Y0
	VCMPPD    $0x1e, Y5, Y0, Y3
	VBLENDVPD Y3, Y5, Y0, Y0
	VMOVUPD   Y0, (R9)(AX*1)
	ADDQ      $4, DI
	DECQ      R8
	JNZ       node

done:
	VZEROUPPER
	MOVB $1, ret+160(FP)
	RET

fail:
	VZEROUPPER
	MOVB $0, ret+160(FP)
	RET
