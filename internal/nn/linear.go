package nn

import (
	"math"

	"fedcross/internal/tensor"
)

// Linear is a fully connected layer: y = xW + b with W of shape (in × out).
type Linear struct {
	In, Out int
	W, B    *tensor.Tensor
	dW, dB  *tensor.Tensor

	x *tensor.Tensor // cached input for backward

	// Reused activation/gradient buffers (see the buffer-ownership rules
	// in docs/ARCHITECTURE.md): refreshed via tensor.Ensure every call, so
	// steady-state training allocates nothing here.
	out, dx *tensor.Tensor
}

// NewLinear constructs a Linear layer with Kaiming-uniform weights drawn
// from rng.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	bound := math.Sqrt(6.0 / float64(in))
	return &Linear{
		In: in, Out: out,
		W:  rng.Uniform(-bound, bound, in, out),
		B:  tensor.Zeros(out),
		dW: tensor.Zeros(in, out),
		dB: tensor.Zeros(out),
	}
}

// Forward computes xW + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatch("Linear", x, l.In)
	l.x = x
	batch := x.Shape[0]
	l.out = tensor.Ensure(l.out, batch, l.Out)
	tensor.MatMulTo(l.out, x, l.W)
	tensor.AddRowTo(l.out, l.out, l.B)
	return l.out
}

// Backward accumulates dW, dB and returns dLoss/dInput = grad · Wᵀ.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(grad)
	l.dx = tensor.Ensure(l.dx, grad.Shape[0], l.In)
	return tensor.MatMulTransBTo(l.dx, grad, l.W)
}

// backwardParams accumulates dW += xᵀ · grad and dB += Σ_batch grad.
func (l *Linear) backwardParams(grad *tensor.Tensor) {
	checkBatch("Linear.Backward", grad, l.Out)
	tensor.MatMulTransAAcc(l.dW, l.x, grad)
	tensor.ColSumAcc(l.dB, grad)
}

// Params returns {W, B}.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Grads returns {dW, dB}.
func (l *Linear) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.dW, l.dB} }
