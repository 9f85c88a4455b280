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

// func bandRowsAVX2(d *float64, n int, v, x *[MaxBands]*float64, nb int)
//
// Registers: DI d, CX n, SI &v, DX &x, BX nb, AX the row i, R9 the band
// k, R10 v[k], R11 x[k]. Every block zeroes its accumulators, then for
// k = 0..nb-1 multiplies v[k] by x[k] and adds the product: the order,
// and so the rounding, of one row of the Go passes. nb is 1..MaxBands.
TEXT ·bandRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ v+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ nb+32(FP), BX
	XORQ AX, AX

block8:
	LEAQ 8(AX), R8
	CMPQ R8, CX
	JGT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ R9, R9

band8:
	MOVQ    (SI)(R9*8), R10
	MOVQ    (DX)(R9*8), R11
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
	MOVQ    (SI)(R9*8), R10
	MOVQ    (DX)(R9*8), R11
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
	MOVQ   (SI)(R9*8), R10
	MOVQ   (DX)(R9*8), R11
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
