package nn

import (
	"math"

	"fedcross/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW images carried in flattened
// (batch × C·H·W) activations. The spatial geometry is fixed at
// construction, and so is its im2col offset table (tensor.ConvTable); the
// forward pass gathers the whole minibatch through that table into one
// (colRows × batch·spatial) workspace, so the convolution is a single
// matrix multiply per layer per step instead of one per sample.
type Conv2D struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Tensor // (OutC × InC*KH*KW)
	B      *tensor.Tensor // (OutC)
	dW, dB *tensor.Tensor

	tab *tensor.ConvTable // im2col offsets for Geom, built once

	// Reusable workspaces, refreshed per call via tensor.Ensure so
	// steady-state batches allocate nothing. cols is the fused im2col
	// workspace (colRows × batch·spatial) that backward consumes; y and dy
	// hold the channel-major (OutC × batch·spatial) activations/gradients
	// on either side of the sample-major (batch × OutC·spatial) layout the
	// surrounding layers exchange.
	cols, y, dy    *tensor.Tensor
	out, dx, dcols *tensor.Tensor
}

// NewConv2D constructs a convolution with the given geometry and output
// channel count, Kaiming-uniform initialised.
func NewConv2D(g tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	tab := tensor.NewConvTable(g) // panics on a degenerate geometry
	fanIn := g.InC * g.KH * g.KW
	bound := math.Sqrt(6.0 / float64(fanIn))
	return &Conv2D{
		Geom: g, OutC: outC,
		W:   rng.Uniform(-bound, bound, outC, fanIn),
		B:   tensor.Zeros(outC),
		dW:  tensor.Zeros(outC, fanIn),
		dB:  tensor.Zeros(outC),
		tab: tab,
	}
}

// InFeatures returns the flattened input width the layer expects.
func (c *Conv2D) InFeatures() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// OutFeatures returns the flattened output width the layer produces.
func (c *Conv2D) OutFeatures() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }

// Forward convolves the whole batch with one fused matmul. Per-element
// arithmetic (ascending-tap matmul chain, one bias add) matches the old
// per-sample lowering exactly, so activations are bit-identical.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatch("Conv2D", x, c.InFeatures())
	batch := x.Shape[0]
	spatial := c.Geom.OutH() * c.Geom.OutW()
	colRows := c.Geom.InC * c.Geom.KH * c.Geom.KW
	c.cols = tensor.Ensure(c.cols, colRows, batch*spatial)
	c.tab.Gather(c.cols, x)
	c.y = tensor.Ensure(c.y, c.OutC, batch*spatial)
	tensor.MatMulTo(c.y, c.W, c.cols) // every sample in one multiply
	c.out = tensor.Ensure(c.out, batch, c.OutC*spatial)
	// Channel-major → sample-major, fusing the bias add into the copy.
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Data[oc]
		yrow := c.y.Data[oc*batch*spatial : (oc+1)*batch*spatial]
		for b := 0; b < batch; b++ {
			src := yrow[b*spatial : (b+1)*spatial]
			dst := c.out.Data[b*c.OutC*spatial+oc*spatial : b*c.OutC*spatial+(oc+1)*spatial]
			for j, v := range src {
				dst[j] = v + bias
			}
		}
	}
	return c.out
}

// Backward accumulates dW/dB and returns the input gradient: the
// parameter half (backwardParams), then dcols = Wᵀ · dy as one
// transposed-A multiply for the whole batch and dx via the table scatter.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	batch := grad.Shape[0]
	colRows := c.Geom.InC * c.Geom.KH * c.Geom.KW
	c.dcols = tensor.Ensure(c.dcols, colRows, batch*c.Geom.OutH()*c.Geom.OutW())
	tensor.MatMulTransATo(c.dcols, c.W, c.dy)
	c.dx = tensor.Ensure(c.dx, batch, c.InFeatures())
	return c.tab.Scatter(c.dx, c.dcols)
}

// backwardParams accumulates dW/dB only. dW comes from a
// segment-accumulating transposed-B kernel whose per-sample segments
// reproduce the per-sample accumulate chain; it leaves the channel-major
// gradient in c.dy for Backward's input half.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	checkBatch("Conv2D.Backward", grad, c.OutFeatures())
	batch := grad.Shape[0]
	spatial := c.Geom.OutH() * c.Geom.OutW()
	// Gather the sample-major incoming gradient into channel-major dy so
	// its layout matches the fused cols workspace (pure copy, no FP ops).
	c.dy = tensor.Ensure(c.dy, c.OutC, batch*spatial)
	for oc := 0; oc < c.OutC; oc++ {
		dyRow := c.dy.Data[oc*batch*spatial : (oc+1)*batch*spatial]
		for b := 0; b < batch; b++ {
			src := grad.Data[b*c.OutC*spatial+oc*spatial : b*c.OutC*spatial+(oc+1)*spatial]
			copy(dyRow[b*spatial:(b+1)*spatial], src)
		}
	}
	// dW += dy · colsᵀ, folded one per-sample segment at a time — bit-equal
	// to the per-sample MatMulTransBAcc sequence it replaces.
	tensor.MatMulTransBSegAcc(c.dW, c.dy, c.cols, spatial)
	// dB += per-sample row sums of dy, samples ascending, serial within a
	// sample — the old scalar loop's exact chain.
	for oc := 0; oc < c.OutC; oc++ {
		dyRow := c.dy.Data[oc*batch*spatial : (oc+1)*batch*spatial]
		acc := c.dB.Data[oc]
		for b := 0; b < batch; b++ {
			s := 0.0
			for _, v := range dyRow[b*spatial : (b+1)*spatial] {
				s += v
			}
			acc += s
		}
		c.dB.Data[oc] = acc
	}
}

// Params returns {W, B}.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns {dW, dB}.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
