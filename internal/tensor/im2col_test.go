package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The per-sample lowering below is the naive reference oracle for
// ConvTable: it recomputes every tap's image coordinate in the loop nest
// instead of reading a table, one sample at a time.

// Im2Col lowers a single CHW image to a matrix of shape
// (InC*KH*KW) × (OutH*OutW), so convolution becomes one MatMul.
// img must have InC*InH*InW elements (any shape).
func Im2Col(img *Tensor, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	return Im2ColTo(Zeros(g.InC*g.KH*g.KW, oh*ow), img, g)
}

// Im2ColTo is Im2Col writing into a caller-owned workspace of shape
// (InC*KH*KW) × (OutH*OutW). dst must not alias img. Padding gaps are
// cleared, so a reused workspace needs no prior Zero.
func Im2ColTo(dst, img *Tensor, g ConvGeom) *Tensor {
	if img.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input has %d elements, geometry wants %d", img.Len(), g.InC*g.InH*g.InW))
	}
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := oh * ow
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColTo destination shape %v, want [%d %d]", dst.Shape, rows, cols))
	}
	out := dst
	if g.Pad > 0 {
		// Out-of-image taps are never written below; clear stale contents.
		out.Zero()
	}
	src := img.Data
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				dst := out.Data[row*cols : (row+1)*cols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					rowOff := chanOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[oy*ow+ox] = src[rowOff+ix]
					}
				}
			}
		}
	}
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters a (InC*KH*KW)×(OutH*OutW)
// gradient matrix back into a CHW image gradient, summing overlaps.
func Col2Im(cols *Tensor, g ConvGeom) *Tensor {
	return Col2ImTo(Zeros(g.InC, g.InH, g.InW), cols, g)
}

// Col2ImTo is Col2Im scattering into a caller-owned image-gradient buffer
// with InC*InH*InW elements (any shape). The buffer is zeroed first, so it
// may hold stale contents. dst must not alias cols.
func Col2ImTo(dstT, cols *Tensor, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	if cols.Rank() != 2 || cols.Shape[0] != rows || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im input shape %v, want [%d %d]", cols.Shape, rows, oh*ow))
	}
	if dstT.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2ImTo destination has %d elements, geometry wants %d", dstT.Len(), g.InC*g.InH*g.InW))
	}
	out := dstT
	out.Zero()
	dst := out.Data
	nc := oh * ow
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				src := cols.Data[row*nc : (row+1)*nc]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					rowOff := chanOff + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.Stride + kw - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[rowOff+ix] += src[oy*ow+ox]
					}
				}
			}
		}
	}
	return out
}

// TestConvTableMatchesOracle pins the table-driven whole-batch Gather and
// Scatter bit for bit against the per-sample oracle across strides 1–3,
// paddings 0–2, kernels 1/3/5, 1/3/8 input channels, non-square images
// and batches of 1 and 7.
func TestConvTableMatchesOracle(t *testing.T) {
	rng := NewRNG(9)
	tried := 0
	for _, inC := range []int{1, 3, 8} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2, 3} {
				for _, pad := range []int{0, 1, 2} {
					g := ConvGeom{InC: inC, InH: 5, InW: 7, KH: k, KW: k, Stride: stride, Pad: pad}
					if g.Validate() != nil {
						continue
					}
					tab := NewConvTable(g)
					for _, batch := range []int{1, 7} {
						checkConvTable(t, rng, tab, batch)
						tried++
					}
				}
			}
		}
	}
	// Non-square kernels on a tall image cover KH != KW.
	for _, g := range []ConvGeom{
		{InC: 3, InH: 9, InW: 4, KH: 3, KW: 1, Stride: 1, Pad: 1},
		{InC: 2, InH: 9, InW: 4, KH: 1, KW: 5, Stride: 2, Pad: 2},
	} {
		checkConvTable(t, rng, NewConvTable(g), 7)
		tried++
	}
	if tried < 100 {
		t.Fatalf("only %d geometry/batch cases ran", tried)
	}
}

func checkConvTable(t *testing.T, rng *RNG, tab *ConvTable, batch int) {
	t.Helper()
	g := tab.geom
	name := fmt.Sprintf("%+v batch %d", g, batch)
	feat := g.InC * g.InH * g.InW
	rows := g.InC * g.KH * g.KW
	spatial := g.OutH() * g.OutW()

	imgs := rng.Uniform(-1, 1, batch, feat)
	ws := Zeros(rows, batch*spatial)
	ws.Fill(math.NaN()) // Gather promises to overwrite padding cells
	tab.Gather(ws, imgs)
	cols := rng.Uniform(-1, 1, rows, batch*spatial)
	dx := Zeros(batch, feat)
	dx.Fill(math.NaN()) // Scatter promises to zero its destination
	tab.Scatter(dx, cols)

	for b := 0; b < batch; b++ {
		solo := Im2Col(New(imgs.Data[b*feat:(b+1)*feat], g.InC, g.InH, g.InW), g)
		soloCols := Zeros(rows, spatial)
		for r := 0; r < rows; r++ {
			equalBits(t, name+" gather", ws.Data[r*batch*spatial+b*spatial:r*batch*spatial+(b+1)*spatial], solo.Data[r*spatial:(r+1)*spatial])
			copy(soloCols.Data[r*spatial:(r+1)*spatial], cols.Data[r*batch*spatial+b*spatial:r*batch*spatial+(b+1)*spatial])
		}
		equalBits(t, name+" scatter", dx.Data[b*feat:(b+1)*feat], Col2Im(soloCols, g).Data)
	}
}

// TestConvTableZeroAlloc: a warmed training step relies on the lowering
// writing only into caller-owned buffers.
func TestConvTableZeroAlloc(t *testing.T) {
	rng := NewRNG(5)
	g := ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	tab := NewConvTable(g)
	imgs := rng.Randn(1, 4, 72)
	ws := Zeros(2*9, 4*36)
	grad := rng.Randn(1, 2*9, 4*36)
	dx := Zeros(4, 72)
	if allocs := testing.AllocsPerRun(20, func() { tab.Gather(ws, imgs) }); allocs != 0 {
		t.Errorf("ConvTable.Gather allocates %v objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { tab.Scatter(dx, grad) }); allocs != 0 {
		t.Errorf("ConvTable.Scatter allocates %v objects/op, want 0", allocs)
	}
}
