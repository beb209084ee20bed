package tensor

import (
	"fmt"
	"math"
)

// ConvGeom describes the geometry of a 2-D convolution over CHW images.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate reports an error if the geometry is degenerate.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims: %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel dims: %+v", g)
	case g.Stride <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride: %+v", g)
	case g.Pad < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding: %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output: %+v", g)
	}
	return nil
}

// ConvTable is a convolution's im2col lowering precomputed as data: for
// every workspace cell (tap row r = (c, kh, kw), output position
// s = (oy, ox)) it holds the offset of the image element that cell reads
// within one flattened CHW sample, or -1 where the tap falls in the
// padding. Gather and Scatter are then one table walk each, with no
// per-geometry special cases. The table depends only on the geometry, so
// a layer builds it once and reuses it for every batch.
type ConvTable struct {
	geom ConvGeom
	off  []int32 // (InC·KH·KW) × (OutH·OutW), row-major
}

// NewConvTable builds the offset table for g. It panics on a degenerate
// geometry or one whose sample is too large for int32 offsets.
func NewConvTable(g ConvGeom) *ConvTable {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if g.InC*g.InH*g.InW > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: conv sample of %d elements overflows int32 offsets", g.InC*g.InH*g.InW))
	}
	oh, ow := g.OutH(), g.OutW()
	off := make([]int32, 0, g.InC*g.KH*g.KW*oh*ow)
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						o := int32(-1)
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							o = int32((c*g.InH+iy)*g.InW + ix)
						}
						off = append(off, o)
					}
				}
			}
		}
	}
	return &ConvTable{geom: g, off: off}
}

// shapes checks a (B × InC·InH·InW) image batch against a
// (InC·KH·KW) × (B·OutH·OutW) workspace and returns the batch size, the
// per-sample feature count, the tap-row count and the per-sample output
// size.
func (t *ConvTable) shapes(op string, imgs, cols *Tensor) (batch, feat, rows, spatial int) {
	g := t.geom
	feat = g.InC * g.InH * g.InW
	if imgs.Rank() != 2 || imgs.Shape[1] != feat {
		panic(fmt.Sprintf("tensor: %s image batch shape %v, want [B %d]", op, imgs.Shape, feat))
	}
	batch = imgs.Shape[0]
	rows = g.InC * g.KH * g.KW
	spatial = g.OutH() * g.OutW()
	if cols.Rank() != 2 || cols.Shape[0] != rows || cols.Shape[1] != batch*spatial {
		panic(fmt.Sprintf("tensor: %s workspace shape %v, want [%d %d]", op, cols.Shape, rows, batch*spatial))
	}
	return batch, feat, rows, spatial
}

// Gather is im2col for a whole minibatch: imgs is (B × InC·InH·InW), one
// flattened CHW image per row, and dst is the (InC·KH·KW) × (B·OutH·OutW)
// workspace with sample b in the column block [b·spatial, (b+1)·spatial).
// Stacking samples horizontally keeps the contraction dimension shared, so
// one MatMulTo(W, dst) convolves the whole batch. Every cell is written
// (padding as 0), so a reused workspace needs no prior Zero. dst must not
// alias imgs.
func (t *ConvTable) Gather(dst, imgs *Tensor) *Tensor {
	batch, feat, rows, spatial := t.shapes("Gather", imgs, dst)
	nc := batch * spatial
	for r := 0; r < rows; r++ {
		offs := t.off[r*spatial : (r+1)*spatial]
		drow := dst.Data[r*nc : (r+1)*nc]
		for b := 0; b < batch; b++ {
			src := imgs.Data[b*feat : (b+1)*feat]
			// Sliced to len(offs) so the compiler drops the store's
			// bounds check.
			dseg := drow[b*spatial : (b+1)*spatial][:len(offs)]
			for s, o := range offs {
				v := 0.0
				if o >= 0 {
					v = src[o]
				}
				dseg[s] = v
			}
		}
	}
	return dst
}

// Scatter is the adjoint of Gather (col2im): it sums the workspace
// gradient cols back into per-sample image gradients. dst is
// (B × InC·InH·InW) and is zeroed first. Each sample's taps are added in
// (c, kh, kw, oy, ox) order, so every element of dst receives its addends
// in one fixed order and the result is bit-reproducible. dst must not
// alias cols.
func (t *ConvTable) Scatter(dst, cols *Tensor) *Tensor {
	batch, feat, rows, spatial := t.shapes("Scatter", dst, cols)
	nc := batch * spatial
	dst.Zero()
	for b := 0; b < batch; b++ {
		out := dst.Data[b*feat : (b+1)*feat]
		for r := 0; r < rows; r++ {
			offs := t.off[r*spatial : (r+1)*spatial]
			src := cols.Data[r*nc+b*spatial : r*nc+(b+1)*spatial][:len(offs)]
			for s, o := range offs {
				if o >= 0 {
					out[o] += src[s]
				}
			}
		}
	}
	return dst
}
