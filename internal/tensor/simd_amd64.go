//go:build amd64 && !purego

package tensor

// AVX2 kernel primitives. Each assembly routine vectorizes across
// INDEPENDENT output elements (lanes, and the registers of a tile) while
// keeping every element's own accumulation chain identical to the scalar
// kernels — VMULPD/VADDPD are one rounding per operation, exactly like
// Go's scalar * and + (no FMA contraction), so the avx2 backend is
// bit-identical to GoBackend. The NN/TransA tile folds each element's
// products in ascending reduction order from +0 or its prior value; the
// dot kernels map the scalar 4-way partial sums onto the four lanes of
// one ymm accumulator per output, tails fold into lane 0, and the
// collapse order is ((s0+s1)+s2)+s3 — the exact structure of the scalar
// dot4. The 2×4 dot tile transposes the partials of 4 outputs so that
// collapse runs as vertical adds, which reorders no element's addends.

// hasAVX2 reports whether the CPU and OS support AVX2 ymm state.
func hasAVX2() bool

// axpyAVX computes dst[i] += a * x[i]. len(x) must be ≥ len(dst).
//
//go:noescape
func axpyAVX(dst, x []float64, a float64)

// axpy4AVX computes dst[i] += a0*x0[i], then += a1*x1[i], += a2*x2[i],
// += a3*x3[i] — four reduction steps per destination pass, adds in
// ascending order per element. Lengths of x0..x3 must be ≥ len(dst).
//
//go:noescape
func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

// dotAVX returns the 4-way partial-sum inner product of a and b (lengths
// equal): lane p%4 accumulates ascending p, tail into lane 0, collapse
// ((s0+s1)+s2)+s3 — bit-identical to the scalar dot4.
//
//go:noescape
func dotAVX(a, b []float64) float64

// gemm4x8AVX computes dst (=|+=) a·b on 4×8 register tiles over mb
// blocks of 4 dst rows and all n >= 8 columns: a(r,p) is a[r*ars +
// p*aps], b and dst have row stride n. Each output starts at +0 (or dst
// when acc) and folds p ascending, one product and one add per term —
// the axpy4AVX sequence. mb > 0.
//
//go:noescape
func gemm4x8AVX(dst, a, b []float64, mb, k, n, ars, aps int, acc bool)

// dotTile2x4AVX computes one seg-long reduction segment of dst (=|+=)
// a·bᵀ on 2×4 tiles over the first 2·mp rows and all n >= 4 columns:
// every output is dotAVX of its a and b row segments (row stride k),
// collapsed ((s0+s1)+s2)+s3, then added to dst (row stride n) when acc
// or stored. mp > 0.
//
//go:noescape
func dotTile2x4AVX(dst, a, b []float64, mp, k, n, seg int, acc bool)

// reluFwdAVX computes out[i] = x[i] if x[i] > 0 else 0, and mask[i] =
// x[i] > 0 (NaN → false/0, like the scalar comparison). Lengths equal.
//
//go:noescape
func reluFwdAVX(out, x []float64, mask []bool)

// reluBwdAVX computes dx[i] = g[i] if mask[i] else 0. Lengths equal.
//
//go:noescape
func reluBwdAVX(dx, g []float64, mask []bool)

// maxPool2AVX computes one channel plane of non-overlapping 2×2 stride-2
// max pooling with argmax. Each lane replays the scalar loop: best starts
// at -Inf, index at -1, candidates tested in (dy, dx) ascending order with
// strict > (GT_OQ) compare-and-blend. ow must be a positive multiple of 4.
//
//go:noescape
func maxPool2AVX(dst []float64, am []int, src []float64, w, oh, ow, base int)

// avx2Supported is probed once at init and gates backend selection.
var avx2Supported = hasAVX2()

// avx2Backend is the AVX2-accelerated kernel backend, bit-identical to
// GoBackend (see the lane argument above): 4×8 register tiles for the NN
// and TransA multiplies, 2×4 partial-dot tiles for TransB and
// GemmTransBSegAcc. Elementwise methods it does not override fall
// through to the embedded pure-Go implementations.
type avx2Backend struct{ GoBackend }

// Name implements Backend.
func (avx2Backend) Name() string { return "avx2" }

// Gemm implements Backend on register tiles. NN and TransA share one
// 4×8 kernel (gemm4x8AVX) that differs only in a's element strides;
// TransB runs 2×4 tiles of 4-lane partial dots (dotTile2x4AVX). Every
// output element keeps the exact addend chain GoBackend gives it — the
// tiles only change which independent elements share a register pass —
// and large NN and TransB multiplies fan out over dst row chunks exactly
// like GoBackend; TransA runs serial, as there.
func (avx2Backend) Gemm(dst, a, b []float64, m, k, n int, transA, transB, acc bool) {
	if transA && transB {
		panic("tensor: Gemm transA && transB unsupported")
	}
	if transA {
		gemmAVX(dst, a, b, 0, m, k, n, 1, m, acc)
		return
	}
	w := matmulWorkerCount(m, m*k*n)
	switch {
	case transB && w > 1:
		parallelRows(m, w, func(i0, i1 int) { gemmTBAVX(dst, a, b, i0, i1, k, n, k, acc) })
	case transB:
		gemmTBAVX(dst, a, b, 0, m, k, n, k, acc)
	case w > 1:
		parallelRows(m, w, func(i0, i1 int) { gemmAVX(dst, a, b, i0, i1, k, n, k, 1, acc) })
	default:
		gemmAVX(dst, a, b, 0, m, k, n, k, 1, acc)
	}
}

// GemmBatch implements Backend by striding the group slabs through the
// AVX2 single-multiply kernel.
func (v avx2Backend) GemmBatch(dst, a, b []float64, groups, m, k, n, strideD, strideA, strideB int, transA, transB, acc bool) {
	for i := 0; i < groups; i++ {
		ai := a
		if strideA != 0 {
			ai = a[i*strideA:]
		}
		v.Gemm(dst[i*strideD:], ai, b[i*strideB:], m, k, n, transA, transB, acc)
	}
}

// GemmTransBSegAcc implements Backend with the 2×4 partial-dot tiles, one
// segment at a time in ascending order — GoBackend's segment structure.
func (avx2Backend) GemmTransBSegAcc(dst, a, b []float64, m, k, n, seg int) {
	if seg <= 0 || k%seg != 0 {
		panic("tensor: GemmTransBSegAcc segment must divide the reduction length")
	}
	gemmTBAVX(dst, a, b, 0, m, k, n, seg, true)
}

// Axpy implements Backend.
func (avx2Backend) Axpy(alpha float64, src, dst []float64) {
	axpyAVX(dst, src, alpha)
}

// gemmAVX computes rows [i0,i1) of dst (=|+=) op(a)·b with op(a)(i,p) =
// ad[i*ars + p*aps]. Whole 4-row blocks run on gemm4x8AVX tiles when
// n >= 8; the m%4 rows left over (and every row of a narrower dst) run
// as row-axpy passes. Both paths give every element the same chain: +0
// (or its prior value), then one product and one add per p ascending.
func gemmAVX(dd, ad, bd []float64, i0, i1, k, n, ars, aps int, acc bool) {
	mb := (i1 - i0) / 4
	if n < 8 || k == 0 {
		mb = 0
	}
	if mb > 0 {
		last := i0 + 4*mb - 1
		_ = dd[last*n+n-1]
		_ = ad[last*ars+(k-1)*aps]
		_ = bd[k*n-1]
		gemm4x8AVX(dd[i0*n:], ad[i0*ars:], bd, mb, k, n, ars, aps, acc)
	}
	for i := i0 + 4*mb; i < i1; i++ {
		axpyRowAVX(dd[i*n:(i+1)*n], ad[i*ars:], bd, k, n, aps, acc)
	}
}

// axpyRowAVX computes drow (=|+=) Σ_p a[p*aps]·b[p*n : p*n+len(drow)] as
// row-axpy passes, four reduction steps per destination pass and p
// ascending per element.
func axpyRowAVX(drow, a, b []float64, k, n, aps int, acc bool) {
	if !acc {
		clear(drow)
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		axpy4AVX(drow, b[p*n:], b[(p+1)*n:], b[(p+2)*n:], b[(p+3)*n:],
			a[p*aps], a[(p+1)*aps], a[(p+2)*aps], a[(p+3)*aps])
	}
	for ; p < k; p++ {
		axpyAVX(drow, b[p*n:], a[p*aps])
	}
}

// gemmTBAVX computes rows [i0,i1) of dst (=|+=) a·bᵀ (b stored n×k) one
// seg-long reduction segment at a time, ascending; seg == k is the plain
// TransB multiply. Whole row pairs run on dotTile2x4AVX when n >= 4; the
// odd row left over (and every row of a narrower dst) takes dotAVX per
// element. Both paths compute the same dot4 per segment and fold it into
// dst the same way.
func gemmTBAVX(dd, ad, bd []float64, i0, i1, k, n, seg int, acc bool) {
	nseg := 1
	if seg > 0 {
		nseg = k / seg
	}
	mp := (i1 - i0) / 2
	if n < 4 || seg == 0 {
		mp = 0
	}
	if mp > 0 {
		_ = dd[(i0+2*mp-1)*n+n-1]
		_ = ad[(i0+2*mp)*k-1]
		_ = bd[n*k-1]
	}
	for s := 0; s < nseg; s++ {
		s0 := s * seg
		if mp > 0 {
			dotTile2x4AVX(dd[i0*n:], ad[i0*k+s0:], bd[s0:], mp, k, n, seg, acc)
		}
		for i := i0 + 2*mp; i < i1; i++ {
			aseg := ad[i*k+s0 : i*k+s0+seg]
			orow := dd[i*n : (i+1)*n]
			for j := range orow {
				d := dotAVX(aseg, bd[j*k+s0:j*k+s0+seg])
				if acc {
					orow[j] += d
				} else {
					orow[j] = d
				}
			}
		}
	}
}

func init() {
	if avx2Supported {
		defaultBackend = avx2Backend{}
		active = defaultBackend
	}
}

// reluForward computes out/mask from x with the scalar semantics
// out[i] = x[i] if x[i] > 0 else 0; the AVX2 path replaces the
// data-dependent branch (a mispredict per random-signed element) with a
// compare mask.
func reluForward(out, x []float64, mask []bool) {
	if avx2Supported {
		reluFwdAVX(out, x, mask)
		return
	}
	reluForwardGo(out, x, mask)
}

// maxPool2x2Plane runs the AVX2 maxpool kernel when the plane width fits
// its vector width and reports whether it did.
func maxPool2x2Plane(dst []float64, am []int, src []float64, w, oh, ow, base int) bool {
	if !avx2Supported || ow < 4 || ow%4 != 0 {
		return false
	}
	maxPool2AVX(dst, am, src, w, oh, ow, base)
	return true
}

// reluBackward computes dx[i] = g[i] if mask[i] else 0.
func reluBackward(dx, g []float64, mask []bool) {
	if avx2Supported {
		reluBwdAVX(dx, g, mask)
		return
	}
	reluBackwardGo(dx, g, mask)
}
