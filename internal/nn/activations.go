package nn

import (
	"math"
	"slices"

	"autopilot/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	in, y, dx *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.in = x
	r.y = reuse(r.y, x)
	relu(r.y.Data(), x.Data())
	return r.y
}

// relu writes max(0, x) into y; -0 and NaN map to +0.
func relu(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}

// Backward masks the incoming gradient by the activation pattern.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = reuse(r.dx, grad)
	od, gd, id := r.dx.Data(), grad.Data(), r.in.Data()
	id, od = id[:len(gd)], od[:len(gd)]
	for i, g := range gd {
		if id[i] <= 0 {
			od[i] = 0
		} else {
			od[i] = g
		}
	}
	return r.dx
}

// Params returns no tensors: ReLU has no parameters.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns no tensors: ReLU has no parameters.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y, dx *tensor.Tensor
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.y = reuse(t.y, x)
	tanh(t.y.Data(), x.Data())
	return t.y
}

// tanh writes tanh(x) into y.
func tanh(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
}

// Backward scales the gradient by 1 - tanh².
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = reuse(t.dx, grad)
	od, gd, yd := t.dx.Data(), grad.Data(), t.y.Data()
	yd, od = yd[:len(gd)], od[:len(gd)]
	for i, g := range gd {
		od[i] = g * (1 - yd[i]*yd[i])
	}
	return t.dx
}

// Params returns no tensors: Tanh has no parameters.
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads returns no tensors: Tanh has no parameters.
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

// reuse returns buf when it already has like's shape, else a fresh zero
// tensor of that shape: the layer-owned buffer for a result shaped like its
// operand.
func reuse(buf, like *tensor.Tensor) *tensor.Tensor {
	if buf != nil && slices.Equal(buf.Shape(), like.Shape()) {
		return buf
	}
	return tensor.New(like.Shape()...)
}

// Flatten reshapes any input to rank 1, remembering the original shape so the
// gradient can be restored on the way back. Both directions return views
// that share the operand's data; a view is rebuilt only when the operand
// changes, which with layer-owned buffers upstream is once.
type Flatten struct {
	shape    []int
	x, flat  *tensor.Tensor // last Forward operand and its rank-1 view
	grad, dx *tensor.Tensor // last Backward operand and its reshaped view
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens x to a vector.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x != f.x {
		f.shape = append(f.shape[:0], x.Shape()...)
		f.x, f.flat = x, x.Reshape(x.Len())
		f.grad, f.dx = nil, nil
	}
	return f.flat
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if grad != f.grad {
		f.grad, f.dx = grad, grad.Reshape(f.shape...)
	}
	return f.dx
}

// Params returns no tensors: Flatten has no parameters.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads returns no tensors: Flatten has no parameters.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Softmax returns the softmax of a vector, computed stably.
func Softmax(x *tensor.Tensor) *tensor.Tensor {
	mx, _ := x.Max()
	out := tensor.Apply(x, func(v float64) float64 { return math.Exp(v - mx) })
	s := out.Sum()
	out.ScaleInPlace(1 / s)
	return out
}
