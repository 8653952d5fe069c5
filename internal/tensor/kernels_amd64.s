#include "textflag.h"

// The packed register tiles of the matmul kernels (see kernels_amd64.go).
// Every lane performs the scalar loop's own operations on one output
// element: a VMULPD rounds each product as MULSD does, and the following
// VADDPD adds it to the accumulator, which is always the first source
// operand. No instruction fuses a multiply with an add, and no sum is
// reordered, so every element is bit-identical to the Go loops.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7, subleaf 0: EBX bit 5 (AVX2).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

// AXPY_TERM adds one term to the accumulator acc: tmp = a*b[j:j+4], then
// acc = acc + tmp.
#define AXPY_TERM(mem, a, tmp, acc) \
	VMULPD  mem, a, tmp; \
	VADDPD  tmp, acc, acc

// AXPY_TERM_SD is AXPY_TERM on the low lane alone.
#define AXPY_TERM_SD(mem, a, tmp, acc) \
	VMULSD  mem, a, tmp; \
	VADDSD  tmp, acc, acc

// func axpy4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         b0_base+24(FP), SI
	MOVQ         b1_base+48(FP), R8
	MOVQ         b2_base+72(FP), R9
	MOVQ         b3_base+96(FP), R10
	VBROADCASTSD a0+120(FP), Y4
	VBROADCASTSD a1+128(FP), Y5
	VBROADCASTSD a2+136(FP), Y6
	VBROADCASTSD a3+144(FP), Y7
	XORQ         AX, AX

axpy4_loop8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     axpy4_loop4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	AXPY_TERM((SI)(AX*8), Y4, Y2, Y0)
	AXPY_TERM(32(SI)(AX*8), Y4, Y3, Y1)
	AXPY_TERM((R8)(AX*8), Y5, Y2, Y0)
	AXPY_TERM(32(R8)(AX*8), Y5, Y3, Y1)
	AXPY_TERM((R9)(AX*8), Y6, Y2, Y0)
	AXPY_TERM(32(R9)(AX*8), Y6, Y3, Y1)
	AXPY_TERM((R10)(AX*8), Y7, Y2, Y0)
	AXPY_TERM(32(R10)(AX*8), Y7, Y3, Y1)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     axpy4_loop8

axpy4_loop4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     axpy4_tail
	VMOVUPD (DI)(AX*8), Y0
	AXPY_TERM((SI)(AX*8), Y4, Y2, Y0)
	AXPY_TERM((R8)(AX*8), Y5, Y2, Y0)
	AXPY_TERM((R9)(AX*8), Y6, Y2, Y0)
	AXPY_TERM((R10)(AX*8), Y7, Y2, Y0)
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX

axpy4_tail:
	CMPQ   AX, CX
	JGE    axpy4_done
	VMOVSD (DI)(AX*8), X0
	AXPY_TERM_SD((SI)(AX*8), X4, X2, X0)
	AXPY_TERM_SD((R8)(AX*8), X5, X2, X0)
	AXPY_TERM_SD((R9)(AX*8), X6, X2, X0)
	AXPY_TERM_SD((R10)(AX*8), X7, X2, X0)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4_tail

axpy4_done:
	VZEROUPPER
	RET

// func axpy2AVX2(o, b0, b1 []float64, a0, a1 float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         b0_base+24(FP), SI
	MOVQ         b1_base+48(FP), R8
	VBROADCASTSD a0+72(FP), Y4
	VBROADCASTSD a1+80(FP), Y5
	XORQ         AX, AX

axpy2_loop8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     axpy2_loop4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	AXPY_TERM((SI)(AX*8), Y4, Y2, Y0)
	AXPY_TERM(32(SI)(AX*8), Y4, Y3, Y1)
	AXPY_TERM((R8)(AX*8), Y5, Y2, Y0)
	AXPY_TERM(32(R8)(AX*8), Y5, Y3, Y1)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     axpy2_loop8

axpy2_loop4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     axpy2_tail
	VMOVUPD (DI)(AX*8), Y0
	AXPY_TERM((SI)(AX*8), Y4, Y2, Y0)
	AXPY_TERM((R8)(AX*8), Y5, Y2, Y0)
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    DX, AX

axpy2_tail:
	CMPQ   AX, CX
	JGE    axpy2_done
	VMOVSD (DI)(AX*8), X0
	AXPY_TERM_SD((SI)(AX*8), X4, X2, X0)
	AXPY_TERM_SD((R8)(AX*8), X5, X2, X0)
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    axpy2_tail

axpy2_done:
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4x4 block whose rows are r0..r3 into c0..c3.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3, c0, c1, c2, c3) \
	VUNPCKLPD  r1, r0, t0; \
	VUNPCKHPD  r1, r0, t1; \
	VUNPCKLPD  r3, r2, t2; \
	VUNPCKHPD  r3, r2, t3; \
	VPERM2F128 $0x20, t2, t0, c0; \
	VPERM2F128 $0x20, t3, t1, c1; \
	VPERM2F128 $0x31, t2, t0, c2; \
	VPERM2F128 $0x31, t3, t1, c3

// DOT_TERM adds column c's term at k: tmp = a[0:4][k] * bc[k], acc += tmp.
#define DOT_TERM(bmem, a, tmp, acc) \
	VBROADCASTSD bmem, tmp; \
	VMULPD       tmp, a, tmp; \
	VADDPD       tmp, acc, acc

// func dot4x4AVX2(o []float64, ldo int, pack, b []float64, ldb int, cont bool)
TEXT ·dot4x4AVX2(SB), NOSPLIT, $0-89
	MOVQ o_base+0(FP), DI
	MOVQ ldo+24(FP), DX
	SHLQ $3, DX
	LEAQ (DI)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), DX
	MOVQ pack_base+32(FP), SI
	MOVQ pack_len+40(FP), CX
	SHRQ $2, CX
	MOVQ b_base+56(FP), R8
	MOVQ ldb+80(FP), BX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

	// Accumulator Y0..Y3 holds output column 0..3, its lanes the four rows:
	// from +0 for the first kBlock, else from the partial sums in o.
	CMPB   cont+88(FP), $0
	JNE    dot_load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP    dot_start

dot_load:
	VMOVUPD (DI), Y4
	VMOVUPD (R12), Y5
	VMOVUPD (R13), Y6
	VMOVUPD (DX), Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y0, Y1, Y2, Y3)

dot_start:
	XORQ AX, AX

dot_loop:
	CMPQ    AX, CX
	JGE     dot_store
	VMOVUPD (SI), Y8
	DOT_TERM((R8)(AX*8), Y8, Y9, Y0)
	DOT_TERM((R9)(AX*8), Y8, Y10, Y1)
	DOT_TERM((R10)(AX*8), Y8, Y11, Y2)
	DOT_TERM((R11)(AX*8), Y8, Y12, Y3)
	ADDQ    $32, SI
	INCQ    AX
	JMP     dot_loop

dot_store:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7)
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, (DX)
	VZEROUPPER
	RET
