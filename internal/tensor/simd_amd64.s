//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels. Bit-identity contract: only VMULPD/VADDPD (one rounding
// per operation, no FMA) on independent lanes, accumulator always the
// first source of each add, accumulators started at +0 or the prior dst
// and never at a first product — the same operation sequence per
// element as the scalar Go kernels. The GEMM tiles (gemm4x8AVX,
// dotTile2x4AVX) only choose which independent elements share a pass;
// shuffles move values without rounding them. See simd_amd64.go for the
// lane argument.

// boolTab maps a 4-bit VMOVMSKPD result to 4 packed bool bytes
// (byte i = bit i), so the ReLU mask store is one 32-bit move.
DATA boolTab<>+0x00(SB)/4, $0x00000000
DATA boolTab<>+0x04(SB)/4, $0x00000001
DATA boolTab<>+0x08(SB)/4, $0x00000100
DATA boolTab<>+0x0c(SB)/4, $0x00000101
DATA boolTab<>+0x10(SB)/4, $0x00010000
DATA boolTab<>+0x14(SB)/4, $0x00010001
DATA boolTab<>+0x18(SB)/4, $0x00010100
DATA boolTab<>+0x1c(SB)/4, $0x00010101
DATA boolTab<>+0x20(SB)/4, $0x01000000
DATA boolTab<>+0x24(SB)/4, $0x01000001
DATA boolTab<>+0x28(SB)/4, $0x01000100
DATA boolTab<>+0x2c(SB)/4, $0x01000101
DATA boolTab<>+0x30(SB)/4, $0x01010000
DATA boolTab<>+0x34(SB)/4, $0x01010001
DATA boolTab<>+0x38(SB)/4, $0x01010100
DATA boolTab<>+0x3c(SB)/4, $0x01010101
GLOBL boolTab<>(SB), RODATA|NOPTR, $64

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	SHRL $27, R8
	ANDL $1, R8 // OSXSAVE
	TESTL R8, R8
	JZ   no
	MOVL CX, R8
	SHRL $28, R8
	ANDL $1, R8 // AVX
	TESTL R8, R8
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX // AVX2
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(dst, x []float64, a float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

loop8:
	CMPQ AX, BX
	JGE  tail4
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX

tail4loop:
	CMPQ AX, BX
	JGE  tail1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tail4loop

tail1:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  tail1

done:
	VZEROUPPER
	RET

// func dotAVX(a, b []float64) float64
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	VXORPD Y0, Y0, Y0 // lanes = partial sums s0..s3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

loop4:
	CMPQ AX, BX
	JGE  lanes
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  Y2, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  loop4

lanes:
	// X0 = {s0, s1}, X1 = {s2, s3}; scalar tail folds into s0 (lane 0).
	VEXTRACTF128 $1, Y0, X1

tail:
	CMPQ AX, CX
	JGE  collapse
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DX)(AX*8), X3
	VMULSD X3, X2, X2
	VADDSD X2, X0, X0
	INCQ AX
	JMP  tail

collapse:
	// ((s0+s1)+s2)+s3, the scalar dot4 collapse order.
	VUNPCKHPD X0, X0, X2 // X2 low = s1
	VADDSD    X2, X0, X0
	VUNPCKHPD X1, X1, X3 // X3 low = s3
	VADDSD    X1, X0, X0 // += s2
	VADDSD    X3, X0, X0 // += s3
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func reluFwdAVX(out, x []float64, mask []bool)
TEXT ·reluFwdAVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ mask_base+48(FP), R8
	MOVQ $boolTab<>(SB), R11
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

loop4:
	CMPQ AX, BX
	JGE  tail
	VMOVUPD (SI)(AX*8), Y1
	VCMPPD  $0x1e, Y0, Y1, Y2 // GT_OQ: x > 0, NaN -> false
	VANDPD  Y1, Y2, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMOVMSKPD Y2, R9
	MOVL    (R11)(R9*4), R10
	MOVL    R10, (R8)(AX*1)
	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD   (SI)(AX*8), X1
	VUCOMISD X0, X1
	JA   pos
	MOVQ $0, (DI)(AX*8)
	MOVB $0, (R8)(AX*1)
	INCQ AX
	JMP  tail

pos:
	VMOVSD X1, (DI)(AX*8)
	MOVB   $1, (R8)(AX*1)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func reluBwdAVX(dx, g []float64, mask []bool)
TEXT ·reluBwdAVX(SB), NOSPLIT, $0-72
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ mask_base+48(FP), R8
	VPXOR Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

loop4:
	CMPQ AX, BX
	JGE  tail
	VPMOVZXBQ (R8)(AX*1), Y2
	VPCMPEQQ  Y0, Y2, Y2      // lanes where mask == 0
	VMOVUPD   (SI)(AX*8), Y1
	VANDNPD   Y1, Y2, Y3      // g where mask != 0, else 0
	VMOVUPD   Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	MOVBLZX (R8)(AX*1), R9
	TESTL   R9, R9
	JZ   zero
	MOVQ (SI)(AX*8), R10
	MOVQ R10, (DI)(AX*8)
	INCQ AX
	JMP  tail

zero:
	MOVQ $0, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// poolLaneIdx seeds the 2x2 maxpool index vector: the input column index
// of each lane's first candidate, relative to the row-pair start.
DATA poolLaneIdx<>+0x00(SB)/8, $0
DATA poolLaneIdx<>+0x08(SB)/8, $2
DATA poolLaneIdx<>+0x10(SB)/8, $4
DATA poolLaneIdx<>+0x18(SB)/8, $6
GLOBL poolLaneIdx<>(SB), RODATA|NOPTR, $32

// func maxPool2AVX(dst []float64, am []int, src []float64, w, oh, ow, base int)
// Non-overlapping 2x2 stride-2 max pooling with argmax over one channel
// plane, 4 output elements per iteration. Each lane replays the scalar
// loop exactly: best starts at -Inf, index at -1, and the four window
// candidates are tested in (dy, dx) ascending order with a strict >
// compare (GT_OQ, so NaN never wins) and mask blends. ow must be a
// positive multiple of 4.
TEXT ·maxPool2AVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ am_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ w+72(FP), R10
	MOVQ oh+80(FP), R9
	MOVQ ow+88(FP), CX
	SHRQ $2, CX              // vector iterations per output row
	MOVQ base+96(FP), R12

	MOVQ $0xFFF0000000000000, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15    // -Inf
	VMOVUPD poolLaneIdx<>+0(SB), Y14
	MOVQ $8, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13    // per-iteration index advance
	VMOVQ R10, X12
	VPBROADCASTQ X12, Y12    // W
	MOVQ $1, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11    // 1
	VPCMPEQQ Y10, Y10, Y10   // -1
	SHLQ $3, R10             // W in bytes
	MOVQ SI, BX              // row0

rowloop:
	TESTQ R9, R9
	JZ   done
	LEAQ (BX)(R10*1), R11    // row1
	VMOVQ R12, X4
	VPBROADCASTQ X4, Y4
	VPADDQ Y14, Y4, Y4       // lane candidate-(0,0) indices
	XORQ DX, DX              // byte offset into the row pair
	MOVQ CX, R13

iter:
	TESTQ R13, R13
	JZ   nextrow
	// Deinterleave 8 consecutive row elements into even/odd columns.
	VMOVUPD (BX)(DX*1), Y0
	VMOVUPD 32(BX)(DX*1), Y1
	VSHUFPD $0x0, Y1, Y0, Y2
	VPERMPD $0xd8, Y2, Y2    // candidates (0,0)
	VSHUFPD $0xf, Y1, Y0, Y3
	VPERMPD $0xd8, Y3, Y3    // candidates (0,1)
	VMOVUPD (R11)(DX*1), Y0
	VMOVUPD 32(R11)(DX*1), Y1
	VSHUFPD $0x0, Y1, Y0, Y6
	VPERMPD $0xd8, Y6, Y6    // candidates (1,0)
	VSHUFPD $0xf, Y1, Y0, Y7
	VPERMPD $0xd8, Y7, Y7    // candidates (1,1)

	VMOVUPD Y15, Y8          // best = -Inf
	VMOVUPD Y10, Y9          // bestIdx = -1

	VCMPPD $0x1e, Y8, Y2, Y0
	VBLENDVPD Y0, Y2, Y8, Y8
	VBLENDVPD Y0, Y4, Y9, Y9

	VPADDQ Y11, Y4, Y1
	VCMPPD $0x1e, Y8, Y3, Y0
	VBLENDVPD Y0, Y3, Y8, Y8
	VBLENDVPD Y0, Y1, Y9, Y9

	VPADDQ Y12, Y4, Y1
	VCMPPD $0x1e, Y8, Y6, Y0
	VBLENDVPD Y0, Y6, Y8, Y8
	VBLENDVPD Y0, Y1, Y9, Y9

	VPADDQ Y12, Y4, Y1
	VPADDQ Y11, Y1, Y1
	VCMPPD $0x1e, Y8, Y7, Y0
	VBLENDVPD Y0, Y7, Y8, Y8
	VBLENDVPD Y0, Y1, Y9, Y9

	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (R8)
	VPADDQ Y13, Y4, Y4
	ADDQ $64, DX
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ R13
	JMP  iter

nextrow:
	LEAQ (BX)(R10*2), BX
	MOVQ w+72(FP), AX
	LEAQ (R12)(AX*2), R12
	DECQ R9
	JMP  rowloop

done:
	VZEROUPPER
	RET

// func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
// dst[i] += a0*x0[i], then += a1*x1[i], += a2*x2[i], += a3*x3[i] — four
// reduction steps per destination pass, adds in ascending order per
// element exactly like four successive scalar axpy rows.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x0_base+24(FP), SI
	MOVQ x1_base+48(FP), DX
	MOVQ x2_base+72(FP), R11
	MOVQ x3_base+96(FP), R14
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y6
	VBROADCASTSD a3+144(FP), Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

loop8:
	CMPQ AX, BX
	JGE  tail4
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (DX)(AX*8), Y4
	VMOVUPD 32(DX)(AX*8), Y5
	VMULPD  Y1, Y4, Y4
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (R11)(AX*8), Y4
	VMOVUPD 32(R11)(AX*8), Y5
	VMULPD  Y6, Y4, Y4
	VMULPD  Y6, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (R14)(AX*8), Y4
	VMOVUPD 32(R14)(AX*8), Y5
	VMULPD  Y7, Y4, Y4
	VMULPD  Y7, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX

tail4loop:
	CMPQ AX, BX
	JGE  tail1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (R11)(AX*8), Y4
	VMULPD  Y6, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (R14)(AX*8), Y4
	VMULPD  Y7, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tail4loop

tail1:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (DX)(AX*8), X4
	VMULSD X1, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (R11)(AX*8), X4
	VMULSD X6, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (R14)(AX*8), X4
	VMULSD X7, X4, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  tail1

done:
	VZEROUPPER
	RET

// tailMask selects the last lanes of an overlapped edge tile: 8 zero
// quadwords then 8 all-ones, so the 8 lanes read from tailMask+8·c are
// set exactly for lanes l >= 8-c (and the 4 read from tailMask+8·(4+c)
// for l >= 4-c).
DATA tailMask<>+0x00(SB)/8, $0
DATA tailMask<>+0x08(SB)/8, $0
DATA tailMask<>+0x10(SB)/8, $0
DATA tailMask<>+0x18(SB)/8, $0
DATA tailMask<>+0x20(SB)/8, $0
DATA tailMask<>+0x28(SB)/8, $0
DATA tailMask<>+0x30(SB)/8, $0
DATA tailMask<>+0x38(SB)/8, $0
DATA tailMask<>+0x40(SB)/8, $-1
DATA tailMask<>+0x48(SB)/8, $-1
DATA tailMask<>+0x50(SB)/8, $-1
DATA tailMask<>+0x58(SB)/8, $-1
DATA tailMask<>+0x60(SB)/8, $-1
DATA tailMask<>+0x68(SB)/8, $-1
DATA tailMask<>+0x70(SB)/8, $-1
DATA tailMask<>+0x78(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// func gemm4x8AVX(dst, a, b []float64, mb, k, n, ars, aps int, acc bool)
// dst (=|+=) a·b on 4×8 register tiles over mb blocks of 4 dst rows and
// all n >= 8 columns. a(r,p) is a[r*ars + p*aps], so NN (ars=k, aps=1)
// and TransA (ars=1, aps=m) share the routine; b and dst have row
// stride n. A tile keeps its 32 outputs in Y0-Y7 (row r in Y(2r),
// Y(2r+1)), started at +0 — never at the first product, which would keep
// a -0 that 0 + -0 rounds away — or at dst when acc, and folds p
// ascending with axpy4AVX's per-element sequence: VMULPD b(p,j)·a(r,p),
// then VADDPD with the accumulator as first source. When 8 does not
// divide n, the last tile is placed at column n-8, over columns already
// final, and only its last n%8 lanes are stored (VMASKMOVPD). Column
// tiles are the outer loop so a tile's b panel stays in L1 across the
// row blocks.
TEXT ·gemm4x8AVX(SB), NOSPLIT, $0-113
	MOVQ b_base+48(FP), DX
	MOVQ n+88(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8              // dst and b row stride in bytes
	MOVQ ars+96(FP), R9
	SHLQ $3, R9
	MOVQ aps+104(FP), R10
	SHLQ $3, R10
	XORQ R11, R11            // column j

coltile:
	LEAQ 8(R11), AX
	CMPQ AX, CX
	JLE  tile
	CMPQ R11, CX
	JGE  done
	LEAQ -8(CX), R11         // overlapped edge tile

tile:
	MOVQ dst_base+0(FP), DI
	LEAQ (DI)(R11*8), DI     // dst(r0, j)
	MOVQ a_base+24(FP), SI   // a(r0, 0)
	MOVQ mb+72(FP), R12

rowblock:
	LEAQ (DI)(R8*2), BX      // dst(r0+2, j)
	CMPB acc+112(FP), $0
	JEQ  zero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R8*1), Y6
	VMOVUPD 32(BX)(R8*1), Y7
	JMP  kstart

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

kstart:
	MOVQ SI, R13             // a(r0, p); a(r0+1, p) at (R13)(R9*1)
	LEAQ (SI)(R9*2), R14     // a(r0+2, p); a(r0+3, p) at (R14)(R9*1)
	LEAQ (DX)(R11*8), BX     // b(p, j)
	MOVQ k+80(FP), AX
	TESTQ AX, AX
	JZ   store

kloop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (R13), Y10
	VMULPD       Y10, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (R13)(R9*1), Y11
	VMULPD       Y11, Y8, Y14
	VMULPD       Y11, Y9, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (R14), Y10
	VMULPD       Y10, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VBROADCASTSD (R14)(R9*1), Y11
	VMULPD       Y11, Y8, Y14
	VMULPD       Y11, Y9, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ R10, R13
	ADDQ R10, R14
	ADDQ R8, BX
	DECQ AX
	JNZ  kloop

store:
	LEAQ (DI)(R8*2), BX
	TESTQ $7, R11
	JNZ  storeedge
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R8*1)
	VMOVUPD Y7, 32(BX)(R8*1)
	JMP  stored

storeedge:
	MOVQ CX, AX
	ANDQ $7, AX
	MOVQ $tailMask<>(SB), R13
	VMOVUPD    (R13)(AX*8), Y8
	VMOVUPD    32(R13)(AX*8), Y9
	VMASKMOVPD Y0, Y8, (DI)
	VMASKMOVPD Y1, Y9, 32(DI)
	VMASKMOVPD Y2, Y8, (DI)(R8*1)
	VMASKMOVPD Y3, Y9, 32(DI)(R8*1)
	VMASKMOVPD Y4, Y8, (BX)
	VMASKMOVPD Y5, Y9, 32(BX)
	VMASKMOVPD Y6, Y8, (BX)(R8*1)
	VMASKMOVPD Y7, Y9, 32(BX)(R8*1)

stored:
	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	DECQ R12
	JNZ  rowblock
	ADDQ $8, R11
	JMP  coltile

done:
	VZEROUPPER
	RET

// func dotTile2x4AVX(dst, a, b []float64, mp, k, n, seg int, acc bool)
// One reduction segment of dst (=|+=) a·bᵀ on 2×4 tiles: for the first
// 2·mp rows and all n >= 4 columns, dst(i,j) (+)= dot4(a(i, 0:seg),
// b(j, 0:seg)) with a and b of row stride k and dst of row stride n.
// Every output keeps dotAVX's own 4-lane partial ymm (lane l sums
// p ≡ l mod 4 ascending, from +0; product a·b, accumulator first
// source). One load of a serves 4 columns and one load of a b row serves
// 2 rows. After the 4-wide steps a 4×4 transpose (VUNPCKL/HPD,
// VPERM2F128) turns a row's 4 partial vectors into one vector per lane
// position; the seg%4 tail terms then fold into the s0 vector, p
// ascending, as dotAVX folds them into lane 0; three vertical adds give
// ((s0+s1)+s2)+s3 for 4 outputs at once — dotAVX's collapse. The sums
// are added to dst (dst first source) when acc, else stored. When 4 does
// not divide n, the last quad is placed at column n-4, over columns
// already final, and only its last n%4 lanes are stored.
TEXT ·dotTile2x4AVX(SB), NOSPLIT, $0-105
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ mp+72(FP), R12
	MOVQ k+80(FP), R9
	SHLQ $3, R9              // a and b row stride in bytes
	MOVQ n+88(FP), R8
	SHLQ $3, R8              // dst row stride in bytes
	MOVQ seg+96(FP), CX
	SHRQ $2, CX              // 4-wide steps per segment

pair:
	XORQ R13, R13            // column j

quad:
	LEAQ 4(R13), AX
	CMPQ AX, n+88(FP)
	JLE  qtile
	CMPQ R13, n+88(FP)
	JGE  nextpair
	MOVQ n+88(FP), R13
	SUBQ $4, R13             // overlapped edge quad

qtile:
	MOVQ  R13, R11
	IMULQ R9, R11
	ADDQ  b_base+48(FP), R11 // b(j, 0)
	LEAQ  (DI)(R13*8), R14   // dst(i, j)
	VXORPD Y0, Y0, Y0        // row i, columns j..j+3
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4        // row i+1, columns j..j+3
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX              // a(i, p); a(i+1, p) at (AX)(R9*1)
	MOVQ R11, BX             // b(j, p); b(j+1, p) at (BX)(R9*1)
	LEAQ (R11)(R9*2), DX     // b(j+2, p); b(j+3, p) at (DX)(R9*1)
	MOVQ CX, R10
	TESTQ R10, R10
	JZ   collapse

steps:
	VMOVUPD (AX), Y8
	VMOVUPD (AX)(R9*1), Y9
	VMOVUPD (BX), Y10
	VMULPD  Y10, Y8, Y12
	VMULPD  Y10, Y9, Y13
	VADDPD  Y12, Y0, Y0
	VADDPD  Y13, Y4, Y4
	VMOVUPD (BX)(R9*1), Y11
	VMULPD  Y11, Y8, Y14
	VMULPD  Y11, Y9, Y15
	VADDPD  Y14, Y1, Y1
	VADDPD  Y15, Y5, Y5
	VMOVUPD (DX), Y10
	VMULPD  Y10, Y8, Y12
	VMULPD  Y10, Y9, Y13
	VADDPD  Y12, Y2, Y2
	VADDPD  Y13, Y6, Y6
	VMOVUPD (DX)(R9*1), Y11
	VMULPD  Y11, Y8, Y14
	VMULPD  Y11, Y9, Y15
	VADDPD  Y14, Y3, Y3
	VADDPD  Y15, Y7, Y7
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ R10
	JNZ  steps

collapse:
	// Row i into Y12..Y15 = lane positions s0..s3 across columns
	// j..j+3; row i+1 likewise into Y0..Y3.
	VUNPCKLPD  Y1, Y0, Y8
	VUNPCKHPD  Y1, Y0, Y9
	VUNPCKLPD  Y3, Y2, Y10
	VUNPCKHPD  Y3, Y2, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VPERM2F128 $0x31, Y10, Y8, Y14
	VPERM2F128 $0x31, Y11, Y9, Y15
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y0
	VPERM2F128 $0x20, Y11, Y9, Y1
	VPERM2F128 $0x31, Y10, Y8, Y2
	VPERM2F128 $0x31, Y11, Y9, Y3
	MOVQ seg+96(FP), R10
	ANDQ $3, R10
	JZ   sum

segtail:
	VMOVSD       (BX), X4
	VMOVHPD      (BX)(R9*1), X4, X4
	VMOVSD       (DX), X5
	VMOVHPD      (DX)(R9*1), X5, X5
	VINSERTF128  $1, X5, Y4, Y4 // b(j..j+3, p)
	VBROADCASTSD (AX), Y5
	VMULPD       Y4, Y5, Y6
	VADDPD       Y6, Y12, Y12
	VBROADCASTSD (AX)(R9*1), Y5
	VMULPD       Y4, Y5, Y6
	VADDPD       Y6, Y0, Y0
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, DX
	DECQ R10
	JNZ  segtail

sum:
	VADDPD Y13, Y12, Y12
	VADDPD Y14, Y12, Y12
	VADDPD Y15, Y12, Y12
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	CMPB acc+104(FP), $0
	JEQ  put
	VMOVUPD (R14), Y1
	VADDPD  Y12, Y1, Y12
	VMOVUPD (R14)(R8*1), Y2
	VADDPD  Y0, Y2, Y0

put:
	TESTQ $3, R13
	JNZ  putedge
	VMOVUPD Y12, (R14)
	VMOVUPD Y0, (R14)(R8*1)
	JMP  nextquad

putedge:
	MOVQ n+88(FP), R10
	ANDQ $3, R10
	MOVQ $tailMask<>(SB), AX
	VMOVUPD    32(AX)(R10*8), Y1
	VMASKMOVPD Y12, Y1, (R14)
	VMASKMOVPD Y0, Y1, (R14)(R8*1)

nextquad:
	ADDQ $4, R13
	JMP  quad

nextpair:
	LEAQ (SI)(R9*2), SI
	LEAQ (DI)(R8*2), DI
	DECQ R12
	JNZ  pair
	VZEROUPPER
	RET
