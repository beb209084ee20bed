package nn

import (
	"fmt"

	"fedcross/internal/tensor"
)

// MaxPool2D performs non-overlapping 2×2 stride-2 max pooling over CHW
// images carried in flattened activations (tensor.MaxPool2x2 gives the
// argmax and tie rules).
type MaxPool2D struct {
	C, H, W int // input geometry

	argmax  []int // flat input index chosen per output element, per batch
	batch   int
	out, dx *tensor.Tensor
}

// NewMaxPool2D constructs a 2×2 pooling layer for C×H×W inputs. H and W
// must be even.
func NewMaxPool2D(c, h, w int) *MaxPool2D {
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D: 2×2 kernel must divide %dx%d", h, w))
	}
	return &MaxPool2D{C: c, H: h, W: w}
}

// InFeatures returns the flattened input width.
func (p *MaxPool2D) InFeatures() int { return p.C * p.H * p.W }

// OutFeatures returns the flattened output width.
func (p *MaxPool2D) OutFeatures() int { return p.C * (p.H / 2) * (p.W / 2) }

// Forward takes the max over each 2×2 window.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatch("MaxPool2D", x, p.InFeatures())
	batch := x.Shape[0]
	p.batch = batch
	outLen := p.OutFeatures()
	p.out = tensor.Ensure(p.out, batch, outLen)
	out := p.out
	if cap(p.argmax) < batch*outLen {
		p.argmax = make([]int, batch*outLen)
	}
	p.argmax = p.argmax[:batch*outLen]
	inLen := p.InFeatures()
	for b := 0; b < batch; b++ {
		tensor.MaxPool2x2(out.Data[b*outLen:(b+1)*outLen], p.argmax[b*outLen:(b+1)*outLen],
			x.Data[b*inLen:(b+1)*inLen], p.W, p.H/2, p.W/2, p.C)
	}
	return out
}

// Backward routes each output gradient to the input element that won the max.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkBatch("MaxPool2D.Backward", grad, p.OutFeatures())
	inLen := p.InFeatures()
	outLen := p.OutFeatures()
	p.dx = tensor.Ensure(p.dx, p.batch, inLen)
	dx := p.dx
	dx.Zero()
	for b := 0; b < p.batch; b++ {
		g := grad.Data[b*outLen : (b+1)*outLen]
		am := p.argmax[b*outLen : (b+1)*outLen]
		dst := dx.Data[b*inLen : (b+1)*inLen]
		for o, idx := range am {
			dst[idx] += g[o]
		}
	}
	return dx
}

// Params returns nil.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// GlobalAvgPool averages each channel's spatial plane, mapping
// (batch × C·H·W) to (batch × C). ResNet-style heads use it before the
// final Linear.
type GlobalAvgPool struct {
	C, H, W int
	batch   int
	out, dx *tensor.Tensor
}

// NewGlobalAvgPool constructs a global average pool for C×H×W inputs.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{C: c, H: h, W: w}
}

// Forward averages over the spatial plane of each channel.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatch("GlobalAvgPool", x, p.C*p.H*p.W)
	batch := x.Shape[0]
	p.batch = batch
	plane := p.H * p.W
	p.out = tensor.Ensure(p.out, batch, p.C)
	out := p.out
	for b := 0; b < batch; b++ {
		src := x.Data[b*p.C*plane : (b+1)*p.C*plane]
		for c := 0; c < p.C; c++ {
			s := 0.0
			for _, v := range src[c*plane : (c+1)*plane] {
				s += v
			}
			out.Data[b*p.C+c] = s / float64(plane)
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	checkBatch("GlobalAvgPool.Backward", grad, p.C)
	plane := p.H * p.W
	inv := 1.0 / float64(plane)
	p.dx = tensor.Ensure(p.dx, p.batch, p.C*plane)
	dx := p.dx
	for b := 0; b < p.batch; b++ {
		for c := 0; c < p.C; c++ {
			g := grad.Data[b*p.C+c] * inv
			dst := dx.Data[b*p.C*plane+c*plane : b*p.C*plane+(c+1)*plane]
			for i := range dst {
				dst[i] = g
			}
		}
	}
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }
