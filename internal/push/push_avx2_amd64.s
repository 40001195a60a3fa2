//go:build !purego

// AVX2 block kernel for the AoSoA particle push: all three staged lane
// loops of advanceRangeLanes fused into one straight-line vector
// routine over the lanes [l0, l1) of a single 256-byte particle.Block,
// followed by the in-cell current accumulation of the block's lanes.
// The 8 lanes of the block are the 8 float32 lanes of a YMM register,
// so each "lane loop" of the Go kernel collapses into a handful of
// vector instructions. Each lane reads its own voxel's interpolator:
// the 18 coefficients are fetched with masked VGATHERDPS from the
// table, so the lanes of a block need not share a voxel and the kernel
// stays vectorized however far the buffer has drifted from voxel order.
//
// Bit-exactness contract (see DESIGN §15 and the parity tests): every
// lane is arithmetically independent, every instruction used is IEEE
// correctly rounded per lane (VADDPS/VSUBPS/VMULPS/VDIVPS/VSQRTPS),
// FMA is deliberately not used (gc emits no FMA contraction for the Go
// kernel on amd64, so fusing here would change roundings), and the
// association of every expression mirrors the Go source exactly.
// Go's rsqrt — float32 SQRTSS then DIVSS — becomes VSQRTPS + VDIVPS,
// the same two correctly-rounded operations lane-wise. Block loads are
// full 32-byte vectors (garbage lanes compute garbage harmlessly);
// gathers are masked to [l0, l1), so the voxel of a lane outside the
// range is never used as an address; stores are masked so lanes
// outside the range, and the pre-step offsets of crossing lanes, are
// never written. The accumulation (stage E) adds each in-range,
// non-crossing lane's twelve contributions into its voxel's
// accumulator cell in ascending lane order, with the cell sum as first
// operand of every add: per slot, the addition chain of the Go
// kernels' run cell, which is loaded from the array at run start and
// stored at run end with nothing else writing the cell in between.
// Crossing lanes are skipped, not added as zeros (−0 + +0 is +0). The
// caller bounds-checks every in-range voxel against both tables first.
//
// Register plan (stages; Y12 = broadcast qdt2mc through stage B):
//   A gather:  Y0-2 dx,dy,dz  Y9 voxel·9  Y10 range mask  Y11 mask copy
//              Y13-15 gathered coefficients and temps
//              -> Y3-5 hax,hay,haz  Y6-8 cbx,cby,cbz
//   B boris:   Y9-11 ux,uy,uz updated, masked-stored to Ux,Uy,Uz
//   C move:    Y3-5 ddx,ddy,ddz  Y0-2 dx,dy,dz  Y6-8 nx,ny,nz
//              Y9 crosser vector -> AX bitmask, Y10 offset store mask
//   D scatter: Y0-2 mx,my,mz  Y3-5 hx,hy,hz  Y11 qw  Y12 v5
//              Y13 1.0  Y14 qh  Y9/Y15 temps -> out.c[0..11]
//   E accum:   DX lanes to add  SI accumulator  R12 &out.sink
//              Y10-13 slots 8-11 by lane pair  Y0-3 slots 0-7 by lane
//              CX cell address  Y4/X5 cell sums

#include "textflag.h"

// Block field offsets (asserted in push_avx2_amd64.go):
#define BDX 0
#define BDY 32
#define BDZ 64
#define BVOXEL 96
#define BUX 128
#define BUY 160
#define BUZ 192
#define BW 224

// laneVecs offsets:
#define ODDX 0
#define ODDY 32
#define ODDZ 64
#define OC 96
#define OSINK 480

DATA one<>+0(SB)/4, $0x3f800000 // float32(1); also the crosser oneBits
GLOBL one<>(SB), RODATA, $4

DATA two<>+0(SB)/4, $0x40000000 // float32(2)
GLOBL two<>(SB), RODATA, $4

DATA half<>+0(SB)/4, $0x3f000000 // float32(0.5)
GLOBL half<>(SB), RODATA, $4

DATA third<>+0(SB)/4, $0x3eaaaaab // float32(1.0/3.0)
GLOBL third<>(SB), RODATA, $4

DATA absmask<>+0(SB)/4, $0x7fffffff
GLOBL absmask<>(SB), RODATA, $4

// rangemask<> row k (k = 0..8) has the first k dword lanes set; the
// range [l0, l1) mask is row[l1] &^ row[l0].
DATA rangemask<>+0(SB)/8, $0x0000000000000000
DATA rangemask<>+8(SB)/8, $0x0000000000000000
DATA rangemask<>+16(SB)/8, $0x0000000000000000
DATA rangemask<>+24(SB)/8, $0x0000000000000000
DATA rangemask<>+32(SB)/8, $0x00000000ffffffff
DATA rangemask<>+40(SB)/8, $0x0000000000000000
DATA rangemask<>+48(SB)/8, $0x0000000000000000
DATA rangemask<>+56(SB)/8, $0x0000000000000000
DATA rangemask<>+64(SB)/8, $0xffffffffffffffff
DATA rangemask<>+72(SB)/8, $0x0000000000000000
DATA rangemask<>+80(SB)/8, $0x0000000000000000
DATA rangemask<>+88(SB)/8, $0x0000000000000000
DATA rangemask<>+96(SB)/8, $0xffffffffffffffff
DATA rangemask<>+104(SB)/8, $0x00000000ffffffff
DATA rangemask<>+112(SB)/8, $0x0000000000000000
DATA rangemask<>+120(SB)/8, $0x0000000000000000
DATA rangemask<>+128(SB)/8, $0xffffffffffffffff
DATA rangemask<>+136(SB)/8, $0xffffffffffffffff
DATA rangemask<>+144(SB)/8, $0x0000000000000000
DATA rangemask<>+152(SB)/8, $0x0000000000000000
DATA rangemask<>+160(SB)/8, $0xffffffffffffffff
DATA rangemask<>+168(SB)/8, $0xffffffffffffffff
DATA rangemask<>+176(SB)/8, $0x00000000ffffffff
DATA rangemask<>+184(SB)/8, $0x0000000000000000
DATA rangemask<>+192(SB)/8, $0xffffffffffffffff
DATA rangemask<>+200(SB)/8, $0xffffffffffffffff
DATA rangemask<>+208(SB)/8, $0xffffffffffffffff
DATA rangemask<>+216(SB)/8, $0x0000000000000000
DATA rangemask<>+224(SB)/8, $0xffffffffffffffff
DATA rangemask<>+232(SB)/8, $0xffffffffffffffff
DATA rangemask<>+240(SB)/8, $0xffffffffffffffff
DATA rangemask<>+248(SB)/8, $0x00000000ffffffff
DATA rangemask<>+256(SB)/8, $0xffffffffffffffff
DATA rangemask<>+264(SB)/8, $0xffffffffffffffff
DATA rangemask<>+272(SB)/8, $0xffffffffffffffff
DATA rangemask<>+280(SB)/8, $0xffffffffffffffff
GLOBL rangemask<>(SB), RODATA, $288

// GATHER loads coefficient byte offset off of every in-range lane's
// interpolator, ip[voxel] = SI + 72·voxel = SI + 8·(9·voxel), into dst.
// The gather consumes its mask, so it works on a copy of the range
// mask; zeroing dst first breaks the merge dependency on its old value
// and leaves 0 in the lanes outside the range.
#define GATHER(off, dst) \
	VXORPS     dst, dst, dst; \
	VMOVDQU    Y10, Y11; \
	VGATHERDPS Y11, off(SI)(Y9*8), dst

// ROWS(h) transposes slots 0-7 of one half of the lanes from out.c
// into Y0-3, one lane per register: h = 0 takes lanes 0-3, h = 16 (the
// byte offset of lane 4) lanes 4-7; Y0 then holds the half's first
// lane's JX0..3 and JY0..3, Y1 the second lane's, and so on.
#define ROWS(h) \
	VMOVUPS     OC+0+h(R9), X0; \
	VINSERTF128 $1, OC+128+h(R9), Y0, Y0; \
	VMOVUPS     OC+32+h(R9), X1; \
	VINSERTF128 $1, OC+160+h(R9), Y1, Y1; \
	VMOVUPS     OC+64+h(R9), X2; \
	VINSERTF128 $1, OC+192+h(R9), Y2, Y2; \
	VMOVUPS     OC+96+h(R9), X3; \
	VINSERTF128 $1, OC+224+h(R9), Y3, Y3; \
	VUNPCKLPS   Y1, Y0, Y4; \
	VUNPCKHPS   Y1, Y0, Y5; \
	VUNPCKLPS   Y3, Y2, Y6; \
	VUNPCKHPS   Y3, Y2, Y7; \
	VSHUFPS     $0x44, Y6, Y4, Y0; \
	VSHUFPS     $0xee, Y6, Y4, Y1; \
	VSHUFPS     $0x44, Y7, Y5, Y2; \
	VSHUFPS     $0xee, Y7, Y5, Y3

// LANE(voff, l, row, srow) adds lane l's row (slots 0-7) and srow
// (slots 8-11) into the cell of the voxel at block offset voff, or into
// out.sink (R12) when bit l of DX is clear. The cell sum is the first
// operand of each add, as in the Go kernels' `sum += contribution`.
#define LANE(voff, l, row, srow) \
	MOVL    voff(DI), CX; \
	LEAQ    (CX)(CX*2), CX; \
	SHLQ    $4, CX; \
	ADDQ    SI, CX; \
	BTL     $l, DX; \
	CMOVQCC R12, CX; \
	VMOVUPS (CX), Y4; \
	VADDPS  row, Y4, Y4; \
	VMOVUPS Y4, (CX); \
	VMOVUPS 32(CX), X5; \
	VADDPS  srow, X5, X5; \
	VMOVUPS X5, 32(CX)

// func advanceBlockAVX2(b *particle.Block, ip *interp.Coeffs, ac *accum.Cell, con *laneConsts, out *laneVecs, l0, l1 int) uint32
TEXT ·advanceBlockAVX2(SB), NOSPLIT, $0-60
	MOVQ b+0(FP), DI
	MOVQ ip+8(FP), SI
	MOVQ con+24(FP), R8
	MOVQ out+32(FP), R9
	MOVQ $rangemask<>(SB), R10
	MOVQ l0+40(FP), R11
	SHLQ $5, R11
	ADDQ R10, R11 // R11 = &rangemask[l0]
	MOVQ l1+48(FP), CX
	SHLQ $5, CX
	ADDQ R10, CX  // CX = &rangemask[l1]

	VBROADCASTSS 0(R8), Y12 // qdt2mc

	// ---- Stage A: gather. dx,dy,dz -> hax,hay,haz (Y3-5), cb (Y6-8).
	VMOVUPS BDX(DI), Y0
	VMOVUPS BDY(DI), Y1
	VMOVUPS BDZ(DI), Y2

	// Gather index voxel·9 (scale 8 makes it the 72-byte stride) and
	// the range mask row[l1] &^ row[l0].
	VMOVDQU BVOXEL(DI), Y9
	VPSLLD  $3, Y9, Y10
	VPADDD  Y9, Y10, Y9
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y10
	VPANDN  Y10, Y14, Y10

	// hax = qdt2mc * ((Ex0 + dy*DExDy) + dz*(DExDz + dy*D2ExDyDz))
	GATHER(4, Y13)  // DExDy
	VMULPS Y1, Y13, Y13
	GATHER(0, Y14)  // Ex0
	VADDPS Y13, Y14, Y13
	GATHER(12, Y14) // D2ExDyDz
	VMULPS Y1, Y14, Y14
	GATHER(8, Y15)  // DExDz
	VADDPS Y14, Y15, Y14
	VMULPS Y2, Y14, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y13, Y12, Y3

	// hay = qdt2mc * ((Ey0 + dz*DEyDz) + dx*(DEyDx + dz*D2EyDzDx))
	GATHER(20, Y13) // DEyDz
	VMULPS Y2, Y13, Y13
	GATHER(16, Y14) // Ey0
	VADDPS Y13, Y14, Y13
	GATHER(28, Y14) // D2EyDzDx
	VMULPS Y2, Y14, Y14
	GATHER(24, Y15) // DEyDx
	VADDPS Y14, Y15, Y14
	VMULPS Y0, Y14, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y13, Y12, Y4

	// haz = qdt2mc * ((Ez0 + dx*DEzDx) + dy*(DEzDy + dx*D2EzDxDy))
	GATHER(36, Y13) // DEzDx
	VMULPS Y0, Y13, Y13
	GATHER(32, Y14) // Ez0
	VADDPS Y13, Y14, Y13
	GATHER(44, Y14) // D2EzDxDy
	VMULPS Y0, Y14, Y14
	GATHER(40, Y15) // DEzDy
	VADDPS Y14, Y15, Y14
	VMULPS Y1, Y14, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y13, Y12, Y5

	// cb = CB0 + d*DCBdD
	GATHER(52, Y13) // DCBxDx
	VMULPS Y0, Y13, Y13
	GATHER(48, Y14) // CBx0
	VADDPS Y13, Y14, Y6
	GATHER(60, Y13) // DCByDy
	VMULPS Y1, Y13, Y13
	GATHER(56, Y14) // CBy0
	VADDPS Y13, Y14, Y7
	GATHER(68, Y13) // DCBzDz
	VMULPS Y2, Y13, Y13
	GATHER(64, Y14) // CBz0
	VADDPS Y13, Y14, Y8

	// ---- Stage B: both half kicks and the Boris rotation.
	// dx,dy,dz (Y0-2) die here and become temps; they are reloaded
	// from the block in stage C.
	VMOVUPS BUX(DI), Y9
	VADDPS  Y3, Y9, Y9   // ux = Ux + hax
	VMOVUPS BUY(DI), Y10
	VADDPS  Y4, Y10, Y10
	VMOVUPS BUZ(DI), Y11
	VADDPS  Y5, Y11, Y11

	// gi = 1 / sqrt(1 + ((ux*ux + uy*uy) + uz*uz))
	VMULPS       Y9, Y9, Y0
	VMULPS       Y10, Y10, Y1
	VADDPS       Y1, Y0, Y0
	VMULPS       Y11, Y11, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS one<>(SB), Y1
	VADDPS       Y0, Y1, Y0
	VSQRTPS      Y0, Y0
	VDIVPS       Y0, Y1, Y0

	// t = (qdt2mc*gi) * cb
	VMULPS Y12, Y0, Y0 // f0
	VMULPS Y0, Y6, Y6  // tx
	VMULPS Y0, Y7, Y7  // ty
	VMULPS Y0, Y8, Y8  // tz

	// s = 2 / (1 + ((tx*tx + ty*ty) + tz*tz))
	VMULPS       Y6, Y6, Y0
	VMULPS       Y7, Y7, Y1
	VADDPS       Y1, Y0, Y0
	VMULPS       Y8, Y8, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS one<>(SB), Y1
	VADDPS       Y0, Y1, Y0
	VBROADCASTSS two<>(SB), Y1
	VDIVPS       Y0, Y1, Y0 // s

	// w = u + u x t
	VMULPS Y8, Y10, Y1 // uy*tz
	VMULPS Y7, Y11, Y2 // uz*ty
	VSUBPS Y2, Y1, Y1
	VADDPS Y1, Y9, Y1  // wx
	VMULPS Y6, Y11, Y2 // uz*tx
	VMULPS Y8, Y9, Y13 // ux*tz
	VSUBPS Y13, Y2, Y2
	VADDPS Y2, Y10, Y2 // wy
	VMULPS Y7, Y9, Y13 // ux*ty
	VMULPS Y6, Y10, Y14 // uy*tx
	VSUBPS Y14, Y13, Y13
	VADDPS Y13, Y11, Y13 // wz

	// u += s * (w x t)
	VMULPS Y8, Y2, Y14  // wy*tz
	VMULPS Y7, Y13, Y15 // wz*ty
	VSUBPS Y15, Y14, Y14
	VMULPS Y14, Y0, Y14
	VADDPS Y14, Y9, Y9
	VMULPS Y6, Y13, Y14 // wz*tx
	VMULPS Y8, Y1, Y15  // wx*tz
	VSUBPS Y15, Y14, Y14
	VMULPS Y14, Y0, Y14
	VADDPS Y14, Y10, Y10
	VMULPS Y7, Y1, Y14 // wx*ty
	VMULPS Y6, Y2, Y15 // wy*tx
	VSUBPS Y15, Y14, Y14
	VMULPS Y14, Y0, Y14
	VADDPS Y14, Y11, Y11

	// Second half kick; store the new momenta to in-range lanes only.
	VADDPS  Y3, Y9, Y9
	VADDPS  Y4, Y10, Y10
	VADDPS  Y5, Y11, Y11
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y15
	VPANDN  Y15, Y14, Y14 // range mask = row[l1] &^ row[l0]
	VMASKMOVPS Y9, Y14, BUX(DI)
	VMASKMOVPS Y10, Y14, BUY(DI)
	VMASKMOVPS Y11, Y14, BUZ(DI)

	// ---- Stage C: final 1/gamma, displacement, crosser mask.
	VMULPS       Y9, Y9, Y0
	VMULPS       Y10, Y10, Y1
	VADDPS       Y1, Y0, Y0
	VMULPS       Y11, Y11, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS one<>(SB), Y1
	VADDPS       Y0, Y1, Y0
	VSQRTPS      Y0, Y0
	VDIVPS       Y0, Y1, Y0 // gi

	// dd = (u*gi) * cdtd2; kept in Y3-5 and spilled to out for the
	// caller's mover records.
	VMULPS       Y0, Y9, Y3
	VBROADCASTSS 8(R8), Y13 // cdx
	VMULPS       Y13, Y3, Y3
	VMULPS       Y0, Y10, Y4
	VBROADCASTSS 12(R8), Y13 // cdy
	VMULPS       Y13, Y4, Y4
	VMULPS       Y0, Y11, Y5
	VBROADCASTSS 16(R8), Y13 // cdz
	VMULPS       Y13, Y5, Y5
	VMOVUPS      Y3, ODDX(R9)
	VMOVUPS      Y4, ODDY(R9)
	VMOVUPS      Y5, ODDZ(R9)

	// n = d + dd (the tentative new offsets)
	VMOVUPS BDX(DI), Y0
	VMOVUPS BDY(DI), Y1
	VMOVUPS BDZ(DI), Y2
	VADDPS  Y3, Y0, Y6
	VADDPS  Y4, Y1, Y7
	VADDPS  Y5, Y2, Y8

	// Crosser: |n| > 1 (or NaN) iff oneBits - (bits(n) &^ signbit)
	// wraps negative, detected per lane via the sign bit.
	VPBROADCASTD absmask<>(SB), Y13
	VPBROADCASTD one<>(SB), Y14
	VPAND        Y6, Y13, Y9
	VPSUBD       Y9, Y14, Y9
	VPAND        Y7, Y13, Y10
	VPSUBD       Y10, Y14, Y10
	VPOR         Y10, Y9, Y9
	VPAND        Y8, Y13, Y10
	VPSUBD       Y10, Y14, Y10
	VPOR         Y10, Y9, Y9
	VMOVMSKPS    Y9, AX // crosser bits, all 8 lanes

	// Offset store mask: in-range lanes that did not cross; the returned
	// crosser bits are clipped to the range.
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y15
	VPANDN  Y15, Y14, Y14
	VPANDN  Y14, Y9, Y10
	VMOVMSKPS Y14, BX
	ANDL      BX, AX

	// ---- Stage D: in-cell current contributions, full width, spilled
	// to out.c for stage E, which adds only the in-range non-crossers.
	// mx,my,mz overwrite dx,dy,dz; hx,hy,hz overwrite dd.
	VBROADCASTSS half<>(SB), Y13
	VMULPS       Y13, Y3, Y3
	VMULPS       Y13, Y4, Y4
	VMULPS       Y13, Y5, Y5
	VMOVUPS      BW(DI), Y11
	VBROADCASTSS 4(R8), Y13 // q
	VMULPS       Y13, Y11, Y11 // qw
	VADDPS       Y3, Y0, Y0    // mx
	VADDPS       Y4, Y1, Y1    // my
	VADDPS       Y5, Y2, Y2    // mz

	// v5 = (((qw*hx)*hy)*hz) * (1/3)
	VMULPS       Y3, Y11, Y12
	VMULPS       Y4, Y12, Y12
	VMULPS       Y5, Y12, Y12
	VBROADCASTSS third<>(SB), Y13
	VMULPS       Y13, Y12, Y12

	VBROADCASTSS one<>(SB), Y13

	// JX slots: qh = qw*hx; pair (my, mz).
	VMULPS  Y3, Y11, Y14
	VSUBPS  Y1, Y13, Y9  // 1-my
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y2, Y13, Y15 // 1-mz
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+0(R9)
	VADDPS  Y1, Y13, Y9 // 1+my
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+32(R9)
	VADDPS  Y2, Y13, Y15 // 1+mz
	VSUBPS  Y1, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+64(R9)
	VADDPS  Y1, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+96(R9)

	// JY slots: qh = qw*hy; pair (mz, mx).
	VMULPS  Y4, Y11, Y14
	VSUBPS  Y2, Y13, Y9  // 1-mz
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y0, Y13, Y15 // 1-mx
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+128(R9)
	VADDPS  Y2, Y13, Y9 // 1+mz
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+160(R9)
	VADDPS  Y0, Y13, Y15 // 1+mx
	VSUBPS  Y2, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+192(R9)
	VADDPS  Y2, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+224(R9)

	// JZ slots: qh = qw*hz; pair (mx, my).
	VMULPS  Y5, Y11, Y14
	VSUBPS  Y0, Y13, Y9  // 1-mx
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y1, Y13, Y15 // 1-my
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+256(R9)
	VADDPS  Y0, Y13, Y9 // 1+mx
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+288(R9)
	VADDPS  Y1, Y13, Y15 // 1+my
	VSUBPS  Y0, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+320(R9)
	VADDPS  Y0, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+352(R9)

	// Commit the new offsets of the in-range, non-crossing lanes.
	VMASKMOVPS Y6, Y10, BDX(DI)
	VMASKMOVPS Y7, Y10, BDY(DI)
	VMASKMOVPS Y8, Y10, BDZ(DI)
	MOVL       AX, ret+56(FP)

	// ---- Stage E: accumulate the in-range non-crossers (BX &^ AX) in
	// ascending lane order. The contributions are transposed to one
	// row per lane (slots 0-7 in a YMM, slots 8-11 in an XMM), and each
	// lane does a load/add/store of its 48-byte cell. A lane that must
	// not add is pointed at out.sink instead, so the sequence has no
	// data-dependent branch; lanes sharing a voxel chain through the
	// store exactly as the Go run cell chains through its registers.
	MOVQ ac+16(FP), SI
	LEAQ OSINK(R9), R12
	MOVL AX, DX
	NOTL DX
	ANDL BX, DX
	JZ   done

	// Slots 8-11: S04 (Y10) holds lane 0's four in its low half and
	// lane 4's in its high half; S15 (Y11), S26 (Y12), S37 (Y13) alike.
	VMOVUPS   OC+256(R9), Y8
	VMOVUPS   OC+288(R9), Y9
	VMOVUPS   OC+320(R9), Y10
	VMOVUPS   OC+352(R9), Y11
	VUNPCKLPS Y9, Y8, Y12
	VUNPCKLPS Y11, Y10, Y13
	VUNPCKHPS Y9, Y8, Y8
	VUNPCKHPS Y11, Y10, Y9
	VSHUFPS   $0x44, Y13, Y12, Y10
	VSHUFPS   $0xee, Y13, Y12, Y11
	VSHUFPS   $0x44, Y9, Y8, Y12
	VSHUFPS   $0xee, Y9, Y8, Y13

	// Slots 0-7 of lanes 0-3 (half 0) into Y0-3, then add.
	ROWS(0)
	LANE(96, 0, Y0, X10)
	LANE(100, 1, Y1, X11)
	LANE(104, 2, Y2, X12)
	LANE(108, 3, Y3, X13)

	// Lanes 4-7.
	ROWS(16)
	VEXTRACTF128 $1, Y10, X10
	VEXTRACTF128 $1, Y11, X11
	VEXTRACTF128 $1, Y12, X12
	VEXTRACTF128 $1, Y13, X13
	LANE(112, 4, Y0, X10)
	LANE(116, 5, Y1, X11)
	LANE(120, 6, Y2, X12)
	LANE(124, 7, Y3, X13)

done:
	VZEROUPPER
	RET
