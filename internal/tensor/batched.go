package tensor

import "fmt"

// Whole-minibatch convolution lowering: Im2ColBatchTo gathers every
// sample's receptive fields into one fused workspace so a single GEMM
// convolves the batch, and Col2ImBatchTo scatters the workspace gradient
// back. Sample b's column block is bit-identical to a per-sample
// Im2ColTo/Col2ImTo.

// Im2ColBatchTo lowers a whole minibatch at once: imgs is (B × InC·InH·InW)
// row-major (one flattened CHW image per row) and dst is the fused
// workspace (InC·KH·KW) × (B·OutH·OutW), with sample b occupying the
// column block [b·spatial, (b+1)·spatial). Stacking samples horizontally
// keeps the contraction dimension shared, so one MatMulTo(W, dst)
// convolves the entire batch — and column block b is bit-identical to a
// per-sample Im2ColTo. Padding gaps are cleared, so a reused workspace
// needs no prior Zero. dst must not alias imgs.
func Im2ColBatchTo(dst, imgs *Tensor, g ConvGeom) *Tensor {
	feat := g.InC * g.InH * g.InW
	if imgs.Rank() != 2 || imgs.Shape[1] != feat {
		panic(fmt.Sprintf("tensor: Im2ColBatch input shape %v, want [B %d]", imgs.Shape, feat))
	}
	batch := imgs.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	spatial := oh * ow
	rows := g.InC * g.KH * g.KW
	cols := batch * spatial
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColBatchTo destination shape %v, want [%d %d]", dst.Shape, rows, cols))
	}
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			oyLo, oyHi := convSpan(oh, g.Stride, kh, g.Pad, g.InH)
			for kw := 0; kw < g.KW; kw++ {
				oxLo, oxHi := convSpan(ow, g.Stride, kw, g.Pad, g.InW)
				row := (c*g.KH+kh)*g.KW + kw
				drow := dst.Data[row*cols : (row+1)*cols]
				// The middle tap (kw == Pad with full-width output rows)
				// reads and writes runs that stay contiguous across oy, so
				// the whole [oyLo, oyHi) block is one copy.
				fused := g.Stride == 1 && oxLo == 0 && oxHi == ow && ow == g.InW
				for b := 0; b < batch; b++ {
					src := imgs.Data[b*feat : (b+1)*feat]
					dseg := drow[b*spatial : (b+1)*spatial]
					// Padding gaps are the complement of the valid spans:
					// whole rows outside [oyLo, oyHi) and, per valid row,
					// columns outside [oxLo, oxHi). With Pad == 0 every
					// span is full and these clears are empty.
					for i := range dseg[:oyLo*ow] {
						dseg[i] = 0
					}
					for i, e := oyHi*ow, len(dseg); i < e; i++ {
						dseg[i] = 0
					}
					if fused {
						start := chanOff + (oyLo+kh-g.Pad)*g.InW
						copy(dseg[oyLo*ow:oyHi*ow], src[start:start+(oyHi-oyLo)*ow])
						continue
					}
					for oy := oyLo; oy < oyHi; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						rowOff := chanOff + iy*g.InW
						dline := dseg[oy*ow : oy*ow+ow]
						for x := 0; x < oxLo; x++ {
							dline[x] = 0
						}
						for x := oxHi; x < ow; x++ {
							dline[x] = 0
						}
						if g.Stride == 1 {
							ix0 := rowOff + oxLo + kw - g.Pad
							sline := src[ix0 : ix0+(oxHi-oxLo)]
							if len(sline) < 16 {
								// Short spans: an inline loop beats the
								// memmove call overhead.
								for x, v := range sline {
									dline[oxLo+x] = v
								}
							} else {
								copy(dline[oxLo:oxHi], sline)
							}
						} else {
							ix := rowOff + oxLo*g.Stride + kw - g.Pad
							for ox := oxLo; ox < oxHi; ox++ {
								dline[ox] = src[ix]
								ix += g.Stride
							}
						}
					}
				}
			}
		}
	}
	return dst
}

// convSpan returns the half-open range [lo, hi) of output positions o in
// [0, on) whose input tap i = o*stride + koff - pad lands inside [0, lim).
// The taps of that range are exactly the in-image ones, so callers can run
// the span branch-free (and as one contiguous copy when stride == 1).
func convSpan(on, stride, koff, pad, lim int) (lo, hi int) {
	if t := pad - koff; t > 0 {
		lo = (t + stride - 1) / stride
	}
	u := lim + pad - koff
	if u <= 0 {
		return 0, 0
	}
	hi = (u-1)/stride + 1
	if hi > on {
		hi = on
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Col2ImBatchTo is the adjoint of Im2ColBatchTo: it scatters a fused
// (InC·KH·KW) × (B·OutH·OutW) gradient back into per-sample image
// gradients, summing overlapping taps. dst is (B × InC·InH·InW) and is
// zeroed first. Each sample's scatter visits taps in the same
// (c, kh, kw, oy, ox) order as the per-sample Col2ImTo, so row b of dst
// is bit-identical to the unfused path. dst must not alias cols.
func Col2ImBatchTo(dst, cols *Tensor, g ConvGeom) *Tensor {
	feat := g.InC * g.InH * g.InW
	if dst.Rank() != 2 || dst.Shape[1] != feat {
		panic(fmt.Sprintf("tensor: Col2ImBatch destination shape %v, want [B %d]", dst.Shape, feat))
	}
	batch := dst.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	spatial := oh * ow
	rows := g.InC * g.KH * g.KW
	if cols.Rank() != 2 || cols.Shape[0] != rows || cols.Shape[1] != batch*spatial {
		panic(fmt.Sprintf("tensor: Col2ImBatch input shape %v, want [%d %d]", cols.Shape, rows, batch*spatial))
	}
	dst.Zero()
	nc := batch * spatial
	for b := 0; b < batch; b++ {
		out := dst.Data[b*feat : (b+1)*feat]
		for c := 0; c < g.InC; c++ {
			chanOff := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				oyLo, oyHi := convSpan(oh, g.Stride, kh, g.Pad, g.InH)
				for kw := 0; kw < g.KW; kw++ {
					oxLo, oxHi := convSpan(ow, g.Stride, kw, g.Pad, g.InW)
					row := (c*g.KH+kh)*g.KW + kw
					src := cols.Data[row*nc+b*spatial : row*nc+(b+1)*spatial]
					if g.Stride == 1 && oxLo == 0 && oxHi == ow && ow == g.InW && oyHi > oyLo {
						// Middle tap: source and destination runs stay
						// contiguous across oy — one fused accumulate.
						start := chanOff + (oyLo+kh-g.Pad)*g.InW
						orow := out[start : start+(oyHi-oyLo)*ow]
						for idx, v := range src[oyLo*ow : oyHi*ow] {
							orow[idx] += v
						}
						continue
					}
					for oy := oyLo; oy < oyHi; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						rowOff := chanOff + iy*g.InW
						if g.Stride == 1 {
							ix0 := rowOff + oxLo + kw - g.Pad
							orow := out[ix0 : ix0+(oxHi-oxLo)]
							for idx, v := range src[oy*ow+oxLo : oy*ow+oxHi] {
								orow[idx] += v
							}
						} else {
							ix := rowOff + oxLo*g.Stride + kw - g.Pad
							for ox := oxLo; ox < oxHi; ox++ {
								out[ix] += src[oy*ow+ox]
								ix += g.Stride
							}
						}
					}
				}
			}
		}
	}
	return dst
}
