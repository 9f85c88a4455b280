//go:build !race

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

// func bandRowsAVX2(d *float64, n int, base **float64, voff *[MaxBands]int32, x *float64, xoff *[MaxBands]int32, nb int)
//
// The prologue turns the offsets into the nb value pointers base[k] +
// 8·voff[k], kept at 0(SP), and the nb x pointers x + 8·xoff[k], kept
// at 64(SP). Registers then: DI d, CX n, BX nb, AX the row i, R8 the
// row past the block, R9 the band k, R10 and R11 band k's value and x
// pointers. Every block zeroes its accumulators, then for k = 0..nb-1
// multiplies band k's values by its x and adds the product: the order,
// and so the rounding, of one row of the Go passes. The 32-row block
// keeps eight accumulators, so the adds of one band wait on no other;
// the 8-row block keeps two. nb is 1..MaxBands.
TEXT ·bandRowsAVX2(SB), NOSPLIT, $128-56
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ base+16(FP), SI
	MOVQ voff+24(FP), R12
	MOVQ x+32(FP), DX
	MOVQ xoff+40(FP), R13
	MOVQ nb+48(FP), BX
	XORQ R9, R9

bases:
	MOVQ    (SI)(R9*8), R10
	MOVLQSX (R12)(R9*4), R11
	LEAQ    (R10)(R11*8), R10
	MOVQ    R10, 0(SP)(R9*8)
	MOVLQSX (R13)(R9*4), R11
	LEAQ    (DX)(R11*8), R11
	MOVQ    R11, 64(SP)(R9*8)
	INCQ    R9
	CMPQ    R9, BX
	JLT     bases
	XORQ    AX, AX

block32:
	LEAQ 32(AX), R8
	CMPQ R8, CX
	JGT  block8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ R9, R9

band32:
	MOVQ    0(SP)(R9*8), R10
	MOVQ    64(SP)(R9*8), R11
	LEAQ    (R10)(AX*8), R10
	LEAQ    (R11)(AX*8), R11
	VMOVUPD 0(R10), Y8
	VMOVUPD 32(R10), Y9
	VMOVUPD 64(R10), Y10
	VMOVUPD 96(R10), Y11
	VMOVUPD 128(R10), Y12
	VMOVUPD 160(R10), Y13
	VMOVUPD 192(R10), Y14
	VMOVUPD 224(R10), Y15
	VMULPD  0(R11), Y8, Y8
	VMULPD  32(R11), Y9, Y9
	VMULPD  64(R11), Y10, Y10
	VMULPD  96(R11), Y11, Y11
	VMULPD  128(R11), Y12, Y12
	VMULPD  160(R11), Y13, Y13
	VMULPD  192(R11), Y14, Y14
	VMULPD  224(R11), Y15, Y15
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y10, Y2, Y2
	VADDPD  Y11, Y3, Y3
	VADDPD  Y12, Y4, Y4
	VADDPD  Y13, Y5, Y5
	VADDPD  Y14, Y6, Y6
	VADDPD  Y15, Y7, Y7
	INCQ    R9
	CMPQ    R9, BX
	JLT     band32
	VMOVUPD Y0, 0(DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	VMOVUPD Y4, 128(DI)(AX*8)
	VMOVUPD Y5, 160(DI)(AX*8)
	VMOVUPD Y6, 192(DI)(AX*8)
	VMOVUPD Y7, 224(DI)(AX*8)
	MOVQ    R8, AX
	JMP     block32

block8:
	LEAQ 8(AX), R8
	CMPQ R8, CX
	JGT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ R9, R9

band8:
	MOVQ    0(SP)(R9*8), R10
	MOVQ    64(SP)(R9*8), R11
	VMOVUPD (R10)(AX*8), Y2
	VMOVUPD 32(R10)(AX*8), Y3
	VMULPD  (R11)(AX*8), Y2, Y2
	VMULPD  32(R11)(AX*8), Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	INCQ    R9
	CMPQ    R9, BX
	JLT     band8
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	MOVQ    R8, AX
	JMP     block8

block4:
	LEAQ 4(AX), R8
	CMPQ R8, CX
	JGT  tail
	VXORPD Y0, Y0, Y0
	XORQ R9, R9

band4:
	MOVQ    0(SP)(R9*8), R10
	MOVQ    64(SP)(R9*8), R11
	VMOVUPD (R10)(AX*8), Y2
	VMULPD  (R11)(AX*8), Y2, Y2
	VADDPD  Y2, Y0, Y0
	INCQ    R9
	CMPQ    R9, BX
	JLT     band4
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ    R8, AX

tail:
	CMPQ AX, CX
	JGE  done
	VXORPD X0, X0, X0
	XORQ R9, R9

band1:
	MOVQ   0(SP)(R9*8), R10
	MOVQ   64(SP)(R9*8), R11
	VMOVSD (R10)(AX*8), X2
	VMULSD (R11)(AX*8), X2, X2
	VADDSD X2, X0, X0
	INCQ   R9
	CMPQ   R9, BX
	JLT    band1
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET
