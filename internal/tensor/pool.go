package tensor

import "math"

// MaxPool2x2 runs non-overlapping 2×2 stride-2 max pooling with argmax
// recording over `planes` stacked channel planes (the CHW layout of one
// sample). src holds planes of 2·oh rows × w columns back to back; dst
// and am receive planes·oh·ow outputs; am records the flat index of each
// winning tap into src. Semantics are those of a plain argmax loop:
// candidates visited in (dy, dx) ascending order, strict > against a
// -Inf start, so ties keep the earliest tap, NaN never wins, and an
// all-NaN window records index -1. Planes whose ow is a multiple of 4 run
// on the vector kernel where there is one; every other shape runs
// maxPool2x2Go.
func MaxPool2x2(dst []float64, am []int, src []float64, w, oh, ow, planes int) {
	n := planes * oh * ow
	if len(dst) < n || len(am) < n || len(src) < planes*2*oh*w {
		panic("tensor: MaxPool2x2 plane size mismatch")
	}
	// Plane p's rows, outputs, and indices all start exactly where plane
	// p-1's ended, so the kernels sweep all planes as one run of
	// oh·planes row pairs.
	if !maxPool2x2Plane(dst, am, src, w, oh*planes, ow, 0) {
		maxPool2x2Go(dst, am, src, w, oh*planes, ow)
	}
}

// maxPool2x2Go pools `pairs` row pairs of src into rows of ow outputs.
// poolTap's select is written so the compiler emits conditional moves
// (CMOVQHI after UCOMISD on amd64): random-signed activations make the
// scalar loop's branch a coin flip, which this path does not pay.
func maxPool2x2Go(dst []float64, am []int, src []float64, w, pairs, ow int) {
	negInf := math.Float64bits(math.Inf(-1))
	for r := 0; r < pairs; r++ {
		d := dst[r*ow : (r+1)*ow]
		a := am[r*ow : (r+1)*ow]
		for ox := range d {
			i := 2*r*w + 2*ox
			best, idx := negInf, -1
			best, idx = poolTap(best, idx, src[i], i)
			best, idx = poolTap(best, idx, src[i+1], i+1)
			best, idx = poolTap(best, idx, src[i+w], i+w)
			best, idx = poolTap(best, idx, src[i+w+1], i+w+1)
			d[ox] = math.Float64frombits(best)
			a[ox] = idx
		}
	}
}

// poolTap is one step of the argmax: tap v at index i replaces the bits
// of the best value so far only when v > best (false for NaN).
func poolTap(best uint64, idx int, v float64, i int) (uint64, int) {
	vb := math.Float64bits(v)
	if v > math.Float64frombits(best) {
		best, idx = vb, i
	}
	return best, idx
}
