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

// NAN_FLAG sets the lanes of Y15 where x or y holds a NaN.
#define NAN_FLAG(x, y, tmp) \
	VCMPPD $3, y, x, tmp; \
	VORPD  tmp, Y15, Y15

// func axpyNAVX2(o, b []float64, offs []int, av []float64, cont bool) (nan bool)
TEXT ·axpyNAVX2(SB), NOSPLIT, $0-105
	MOVQ    o_base+0(FP), DI
	MOVQ    o_len+8(FP), CX
	MOVQ    b_base+24(FP), SI
	MOVQ    offs_base+48(FP), R8
	MOVQ    offs_len+56(FP), R9
	MOVQ    av_base+72(FP), R10
	MOVBQZX cont+96(FP), R11
	VXORPD  Y15, Y15, Y15
	XORQ    AX, AX

	// Per lane group, the accumulators start from +0 or from o, take every
	// term in order and are stored once, and Y15 flags their NaN lanes.
	// Term t's b row starts at SI + 8*offs[t], and R12 holds it.
axpyn_loop32:
	LEAQ    32(AX), DX
	CMPQ    DX, CX
	JGT     axpyn_loop4
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	TESTQ   R11, R11
	JZ      axpyn_start32
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMOVUPD 128(DI)(AX*8), Y4
	VMOVUPD 160(DI)(AX*8), Y5
	VMOVUPD 192(DI)(AX*8), Y6
	VMOVUPD 224(DI)(AX*8), Y7

axpyn_start32:
	XORQ BX, BX

axpyn_term32:
	MOVQ         (R8)(BX*8), R12
	LEAQ         (SI)(R12*8), R12
	VBROADCASTSD (R10)(BX*8), Y8
	AXPY_TERM((R12)(AX*8), Y8, Y9, Y0)
	AXPY_TERM(32(R12)(AX*8), Y8, Y10, Y1)
	AXPY_TERM(64(R12)(AX*8), Y8, Y11, Y2)
	AXPY_TERM(96(R12)(AX*8), Y8, Y12, Y3)
	AXPY_TERM(128(R12)(AX*8), Y8, Y9, Y4)
	AXPY_TERM(160(R12)(AX*8), Y8, Y10, Y5)
	AXPY_TERM(192(R12)(AX*8), Y8, Y11, Y6)
	AXPY_TERM(224(R12)(AX*8), Y8, Y12, Y7)
	INCQ         BX
	CMPQ         BX, R9
	JLT          axpyn_term32
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	VMOVUPD      Y4, 128(DI)(AX*8)
	VMOVUPD      Y5, 160(DI)(AX*8)
	VMOVUPD      Y6, 192(DI)(AX*8)
	VMOVUPD      Y7, 224(DI)(AX*8)
	NAN_FLAG(Y0, Y1, Y9)
	NAN_FLAG(Y2, Y3, Y10)
	NAN_FLAG(Y4, Y5, Y11)
	NAN_FLAG(Y6, Y7, Y12)
	MOVQ         DX, AX
	JMP          axpyn_loop32

axpyn_loop4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     axpyn_tail
	VXORPD  Y0, Y0, Y0
	TESTQ   R11, R11
	JZ      axpyn_start4
	VMOVUPD (DI)(AX*8), Y0

axpyn_start4:
	XORQ BX, BX

axpyn_term4:
	MOVQ         (R8)(BX*8), R12
	LEAQ         (SI)(R12*8), R12
	VBROADCASTSD (R10)(BX*8), Y4
	AXPY_TERM((R12)(AX*8), Y4, Y5, Y0)
	INCQ         BX
	CMPQ         BX, R9
	JLT          axpyn_term4
	VMOVUPD      Y0, (DI)(AX*8)
	NAN_FLAG(Y0, Y0, Y5)
	MOVQ         DX, AX
	JMP          axpyn_loop4

	// The scalar ops leave lanes 1-3 of Y0 at +0, so NAN_FLAG sees lane 0.
axpyn_tail:
	CMPQ   AX, CX
	JGE    axpyn_done
	VXORPD Y0, Y0, Y0
	TESTQ  R11, R11
	JZ     axpyn_start1
	VMOVSD (DI)(AX*8), X0

axpyn_start1:
	XORQ BX, BX

axpyn_term1:
	MOVQ   (R8)(BX*8), R12
	LEAQ   (SI)(R12*8), R12
	VMOVSD (R10)(BX*8), X4
	AXPY_TERM_SD((R12)(AX*8), X4, X5, X0)
	INCQ   BX
	CMPQ   BX, R9
	JLT    axpyn_term1
	VMOVSD X0, (DI)(AX*8)
	NAN_FLAG(Y0, Y0, Y5)
	INCQ   AX
	JMP    axpyn_tail

axpyn_done:
	VMOVMSKPD Y15, AX
	TESTQ     AX, AX
	SETNE     nan+104(FP)
	VZEROUPPER
	RET

// ROW_TERM adds one row's term at k to the accumulator acc of four output
// columns: tmp = a[k] * c, where the lanes of c are the columns' b[k], then
// acc = acc + tmp.
#define ROW_TERM(amem, c, tmp, acc) \
	VBROADCASTSD amem, tmp; \
	VMULPD       c, tmp, tmp; \
	VADDPD       tmp, acc, acc

// BT_COLS4 loads four k of b's rows at r0..r3 and transposes them, so that
// Y0..Y3 hold k, k+1, k+2, k+3 with the four columns as lanes.
#define BT_COLS4(r0, r1, r2, r3) \
	VMOVUPD r0, Y0; \
	VMOVUPD r1, Y1; \
	VMOVUPD r2, Y2; \
	VMOVUPD r3, Y3; \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)

// BT_COLS1 gathers one k of b's rows at r0..r3 into Y0, a column a lane.
#define BT_COLS1(r0, r1, r2, r3) \
	VMOVSD      r0, X0; \
	VMOVHPD     r1, X0, X0; \
	VMOVSD      r2, X1; \
	VMOVHPD     r3, X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0

// BT_TERMS1..3 add four k (Y0..Y3, from BT_COLS4) for rows 0..R-1 of a,
// whose k-th elements are at SI, SI+BX and SI+2*BX.
#define BT_TERMS1(acc0) \
	ROW_TERM(0(SI), Y0, Y4, acc0); \
	ROW_TERM(8(SI), Y1, Y5, acc0); \
	ROW_TERM(16(SI), Y2, Y6, acc0); \
	ROW_TERM(24(SI), Y3, Y7, acc0)

#define BT_TERMS2(acc0, acc1) \
	ROW_TERM(0(SI), Y0, Y4, acc0); \
	ROW_TERM(0(SI)(BX*1), Y0, Y5, acc1); \
	ROW_TERM(8(SI), Y1, Y6, acc0); \
	ROW_TERM(8(SI)(BX*1), Y1, Y7, acc1); \
	ROW_TERM(16(SI), Y2, Y4, acc0); \
	ROW_TERM(16(SI)(BX*1), Y2, Y5, acc1); \
	ROW_TERM(24(SI), Y3, Y6, acc0); \
	ROW_TERM(24(SI)(BX*1), Y3, Y7, acc1)

#define BT_TERMS3(acc0, acc1, acc2) \
	ROW_TERM(0(SI), Y0, Y4, acc0); \
	ROW_TERM(0(SI)(BX*1), Y0, Y5, acc1); \
	ROW_TERM(0(SI)(BX*2), Y0, Y6, acc2); \
	ROW_TERM(8(SI), Y1, Y7, acc0); \
	ROW_TERM(8(SI)(BX*1), Y1, Y4, acc1); \
	ROW_TERM(8(SI)(BX*2), Y1, Y5, acc2); \
	ROW_TERM(16(SI), Y2, Y6, acc0); \
	ROW_TERM(16(SI)(BX*1), Y2, Y7, acc1); \
	ROW_TERM(16(SI)(BX*2), Y2, Y4, acc2); \
	ROW_TERM(24(SI), Y3, Y5, acc0); \
	ROW_TERM(24(SI)(BX*1), Y3, Y6, acc1); \
	ROW_TERM(24(SI)(BX*2), Y3, Y7, acc2)

// The two halves of the eight columns: rows R8..R11, and the same plus R12.
#define BT_LO4 BT_COLS4((R8), (R9), (R10), (R11))
#define BT_HI4 BT_COLS4((R8)(R12*1), (R9)(R12*1), (R10)(R12*1), (R11)(R12*1))
#define BT_LO1 BT_COLS1((R8), (R9), (R10), (R11))
#define BT_HI1 BT_COLS1((R8)(R12*1), (R9)(R12*1), (R10)(R12*1), (R11)(R12*1))

// BT_NEXT advances a and the eight b rows by n elements.
#define BT_NEXT(n) \
	ADDQ $(8*n), SI; \
	ADDQ $(8*n), R8; \
	ADDQ $(8*n), R9; \
	ADDQ $(8*n), R10; \
	ADDQ $(8*n), R11

// func dotRows8AVX2(o []float64, ldo int, a, b []float64, rows, kn int)
TEXT ·dotRows8AVX2(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ ldo+24(FP), R13
	SHLQ $3, R13
	MOVQ a_base+32(FP), SI
	MOVQ b_base+56(FP), R8
	MOVQ rows+80(FP), AX
	MOVQ kn+88(FP), CX
	MOVQ CX, BX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	MOVQ BX, R12
	SHLQ $2, R12
	MOVQ CX, DX
	ANDQ $3, DX
	SHRQ $2, CX

	// Accumulators: Y8/Y9 are row 0's columns 0-3/4-7, Y10/Y11 row 1's,
	// Y12/Y13 row 2's, all from +0. CX counts four-k steps, DX the k left.
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	CMPQ   AX, $2
	JLT    bt1_loop
	JEQ    bt2_loop

bt3_loop:
	CMPQ CX, $0
	JEQ  bt3_tail
	BT_LO4
	BT_TERMS3(Y8, Y10, Y12)
	BT_HI4
	BT_TERMS3(Y9, Y11, Y13)
	BT_NEXT(4)
	DECQ CX
	JMP  bt3_loop

bt3_tail:
	CMPQ DX, $0
	JEQ  bt_store3
	BT_LO1
	ROW_TERM((SI), Y0, Y4, Y8)
	ROW_TERM((SI)(BX*1), Y0, Y5, Y10)
	ROW_TERM((SI)(BX*2), Y0, Y6, Y12)
	BT_HI1
	ROW_TERM((SI), Y0, Y4, Y9)
	ROW_TERM((SI)(BX*1), Y0, Y5, Y11)
	ROW_TERM((SI)(BX*2), Y0, Y6, Y13)
	BT_NEXT(1)
	DECQ DX
	JMP  bt3_tail

bt2_loop:
	CMPQ CX, $0
	JEQ  bt2_tail
	BT_LO4
	BT_TERMS2(Y8, Y10)
	BT_HI4
	BT_TERMS2(Y9, Y11)
	BT_NEXT(4)
	DECQ CX
	JMP  bt2_loop

bt2_tail:
	CMPQ DX, $0
	JEQ  bt_store2
	BT_LO1
	ROW_TERM((SI), Y0, Y4, Y8)
	ROW_TERM((SI)(BX*1), Y0, Y5, Y10)
	BT_HI1
	ROW_TERM((SI), Y0, Y4, Y9)
	ROW_TERM((SI)(BX*1), Y0, Y5, Y11)
	BT_NEXT(1)
	DECQ DX
	JMP  bt2_tail

bt1_loop:
	CMPQ CX, $0
	JEQ  bt1_tail
	BT_LO4
	BT_TERMS1(Y8)
	BT_HI4
	BT_TERMS1(Y9)
	BT_NEXT(4)
	DECQ CX
	JMP  bt1_loop

bt1_tail:
	CMPQ DX, $0
	JEQ  bt_store1
	BT_LO1
	ROW_TERM((SI), Y0, Y4, Y8)
	BT_HI1
	ROW_TERM((SI), Y0, Y4, Y9)
	BT_NEXT(1)
	DECQ DX
	JMP  bt1_tail

bt_store3:
	VMOVUPD Y12, (DI)(R13*2)
	VMOVUPD Y13, 32(DI)(R13*2)

bt_store2:
	VMOVUPD Y10, (DI)(R13*1)
	VMOVUPD Y11, 32(DI)(R13*1)

bt_store1:
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VZEROUPPER
	RET
