#include "textflag.h"

// AVX2 matmul kernels. Every YMM lane holds a different output element, so
// each element sees exactly the scalar kernels' operations in their order:
// one rounded multiply, then one rounded add (no FMA), with the reduction
// index p walked in ascending order. Nothing is summed across lanes.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// DOTROW multiplies the broadcast a value at addr by the two B vectors
// (Y8, Y9) and adds the products into the row's accumulators.
#define DOTROW(addr, acc0, acc1) \
	VBROADCASTSD addr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, acc0, acc0; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, acc1, acc1

// FIRSTROW starts the row's accumulators at the first product.
#define FIRSTROW(addr, acc0, acc1) \
	VBROADCASTSD addr, Y10; \
	VMULPD       Y8, Y10, acc0; \
	VMULPD       Y9, Y10, acc1

// func dotTile4AVX2(dst, a, b []float64, k, n, n8, mode int)
//
// Registers: SI a row 0, R10 a row 3, DX b, DI dst row 0, R11 the a row
// stride and R12 the b/dst row stride (bytes), R9 the bytes of columns to
// compute, R14 the column offset. Per column block, AX and BX walk a's rows
// along p, CX walks b's rows, R8 counts p down; Y0..Y7 accumulate rows
// 0..3 × columns j..j+3, j+4..j+7.
TEXT ·dotTile4AVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ k+72(FP), R11
	MOVQ n+80(FP), R12
	MOVQ n8+88(FP), R9
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R9
	LEAQ (SI)(R11*2), R10
	ADDQ R11, R10
	XORQ R14, R14

dotcol:
	CMPQ R14, R9
	JGE  dotdone
	MOVQ SI, AX
	MOVQ R10, BX
	LEAQ (DX)(R14*1), CX
	MOVQ k+72(FP), R8
	MOVQ mode+96(FP), R13
	TESTQ $2, R13
	JNZ  dotfirst
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ R8, R8
	JZ   dotflush
	JMP  dotp

dotfirst:
	VMOVUPD (CX), Y8
	VMOVUPD 32(CX), Y9
	FIRSTROW((AX), Y0, Y1)
	FIRSTROW((AX)(R11*1), Y2, Y3)
	FIRSTROW((AX)(R11*2), Y4, Y5)
	FIRSTROW((BX), Y6, Y7)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ R12, CX
	DECQ R8
	JZ   dotflush

dotp:
	VMOVUPD (CX), Y8
	VMOVUPD 32(CX), Y9
	DOTROW((AX), Y0, Y1)
	DOTROW((AX)(R11*1), Y2, Y3)
	DOTROW((AX)(R11*2), Y4, Y5)
	DOTROW((BX), Y6, Y7)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ R12, CX
	DECQ R8
	JNZ  dotp

dotflush:
	LEAQ (DI)(R14*1), CX
	LEAQ (CX)(R12*2), BX
	ADDQ R12, BX
	TESTQ $1, R13
	JNZ  dotstore
	VADDPD (CX), Y0, Y0
	VADDPD 32(CX), Y1, Y1
	VADDPD (CX)(R12*1), Y2, Y2
	VADDPD 32(CX)(R12*1), Y3, Y3
	VADDPD (CX)(R12*2), Y4, Y4
	VADDPD 32(CX)(R12*2), Y5, Y5
	VADDPD (BX), Y6, Y6
	VADDPD 32(BX), Y7, Y7

dotstore:
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, (CX)(R12*1)
	VMOVUPD Y3, 32(CX)(R12*1)
	VMOVUPD Y4, (CX)(R12*2)
	VMOVUPD Y5, 32(CX)(R12*2)
	VMOVUPD Y6, (BX)
	VMOVUPD Y7, 32(BX)
	ADDQ $64, R14
	JMP  dotcol

dotdone:
	VZEROUPPER
	RET

// BWDB4 updates four dB columns at byte offset off from R14:
// dB += ((v0·g0 + v1·g1) + v2·g2) + v3·g3, with v0..v3 broadcast in Y0..Y3.
#define BWDB4(off, s, t) \
	VMULPD off(DI)(R14*1), Y0, s; \
	VMULPD off(DX)(R14*1), Y1, t; \
	VADDPD t, s, s; \
	VMULPD off(SI)(R14*1), Y2, t; \
	VADDPD t, s, s; \
	VMULPD off(R10)(R14*1), Y3, t; \
	VADDPD t, s, s; \
	VADDPD off(CX)(R14*1), s, s; \
	VMOVUPD s, off(CX)(R14*1)

// func bwdB4AVX2(dB, a, g []float64, k, n, n4 int)
//
// Registers: AX walks a's rows 0..2 and BX row 3 along p, R11 is the a row
// stride and R12 the g/dB row stride (bytes), DI, DX, SI and R10 are g's
// rows 0..3, CX is dB's row p, R8 counts p down, R9 is the bytes of
// columns to update and R14 the column offset.
TEXT ·bwdB4AVX2(SB), NOSPLIT, $0-96
	MOVQ dB_base+0(FP), CX
	MOVQ a_base+24(FP), AX
	MOVQ g_base+48(FP), DI
	MOVQ k+72(FP), R8
	MOVQ n+80(FP), R12
	MOVQ n4+88(FP), R9
	MOVQ R8, R11
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R9
	LEAQ (AX)(R11*2), BX
	ADDQ R11, BX
	LEAQ (DI)(R12*1), DX
	LEAQ (DI)(R12*2), SI
	LEAQ (SI)(R12*1), R10
	TESTQ R8, R8
	JZ   bwddone

bwdp:
	// Skip p when a[0..3, p] are all ±0: OR their bits and drop the sign.
	MOVQ (AX), R13
	ORQ  (AX)(R11*1), R13
	ORQ  (AX)(R11*2), R13
	ORQ  (BX), R13
	SHLQ $1, R13
	JZ   bwdnext
	VBROADCASTSD (AX), Y0
	VBROADCASTSD (AX)(R11*1), Y1
	VBROADCASTSD (AX)(R11*2), Y2
	VBROADCASTSD (BX), Y3
	XORQ R14, R14

bwdj8:
	LEAQ 64(R14), R13
	CMPQ R13, R9
	JGT  bwdj4
	BWDB4(0, Y4, Y5)
	BWDB4(32, Y6, Y7)
	MOVQ R13, R14
	JMP  bwdj8

bwdj4:
	CMPQ R14, R9
	JGE  bwdnext
	BWDB4(0, Y4, Y5)

bwdnext:
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ R12, CX
	DECQ R8
	JNZ  bwdp

bwddone:
	VZEROUPPER
	RET
