package nn

import (
	"fmt"

	"autopilot/internal/tensor"
)

// BatchLayer is implemented by layers that can evaluate a whole batch of
// inputs in one inference-only pass. ForwardBatch must be pure — it reads
// parameters but writes none of the caches Backward depends on — so a frozen
// network can be evaluated concurrently from many rollout workers, and each
// output must be bitwise identical to calling Forward on that input alone.
// Backward after ForwardBatch is undefined; it exists for evaluation, not
// training.
type BatchLayer interface {
	ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor
}

// ForwardBatch computes W·x + b for every input with Forward's kernel,
// into fresh outputs and without touching the input cache.
func (d *Dense) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	out := d.OutDim()
	ys := make([]*tensor.Tensor, len(xs))
	buf := make([]float64, len(xs)*out)
	for i, x := range xs {
		d.mustInput(x)
		y := buf[i*out : (i+1)*out]
		d.forward(y, x.Data())
		ys[i] = tensor.FromSlice(y, out)
	}
	return ys
}

// ForwardBatch convolves every input with Forward's kernels. The im2col
// workspace is allocated per call and shared by the call's samples, so the
// layer's own buffers are left untouched and concurrent calls share nothing.
func (c *Conv2D) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	n := c.Dims.OutC * c.hw()
	cols := make([]float64, c.fanIn()*c.hw())
	buf := make([]float64, len(xs)*n)
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		y := buf[i*n : (i+1)*n]
		c.forward(y, cols, x.Data())
		ys[i] = tensor.FromSlice(y, c.Dims.OutC, c.Dims.OutH(), c.Dims.OutW())
	}
	return ys
}

// ForwardBatch applies max(0, x) to every input without caching the
// activation pattern.
func (r *ReLU) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = tensor.New(x.Shape()...)
		relu(ys[i].Data(), x.Data())
	}
	return ys
}

// ForwardBatch applies tanh to every input without caching the output.
func (t *Tanh) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = tensor.New(x.Shape()...)
		tanh(ys[i].Data(), x.Data())
	}
	return ys
}

// ForwardBatch flattens every input to a vector without caching the shape.
func (f *Flatten) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = x.Reshape(x.Len())
	}
	return ys
}

// ForwardBatch runs a whole batch through every layer, using the cache-free
// batched path where a layer provides one and falling back to per-sample
// Forward, with each result copied out, otherwise. With the stock layers
// (Dense, Conv2D, ReLU, Tanh, Flatten) the whole pass is pure: safe for
// concurrent use on a frozen network and bitwise identical to per-sample
// Forward.
func (s *Sequential) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	xs = append([]*tensor.Tensor(nil), xs...)
	for _, l := range s.Layers {
		if bl, ok := l.(BatchLayer); ok {
			xs = bl.ForwardBatch(xs)
			continue
		}
		for i, x := range xs {
			// Forward's result is layer-owned; keep a copy per sample.
			xs[i] = l.Forward(x).Clone()
		}
	}
	return xs
}

// ForwardBatch evaluates the two-branch network on a batch of observations
// without touching the branch-length caches Backward uses: both trunks run
// batched, the per-sample outputs are concatenated, and the head runs
// batched over the joints. Pure for stock layers — the rollout collector
// evaluates one frozen policy from many workers through this path.
func (m *MultiModal) ForwardBatch(imgs, states []*tensor.Tensor) []*tensor.Tensor {
	if len(imgs) != len(states) {
		panic(fmt.Sprintf("nn: MultiModal batch size mismatch %d vs %d", len(imgs), len(states)))
	}
	if len(imgs) == 0 {
		return nil
	}
	vs := m.Vision.ForwardBatch(imgs)
	ss := m.State.ForwardBatch(states)
	joints := make([]*tensor.Tensor, len(imgs))
	for i := range joints {
		vLen, sLen := vs[i].Len(), ss[i].Len()
		joint := tensor.New(vLen + sLen)
		copy(joint.Data(), vs[i].Data())
		copy(joint.Data()[vLen:], ss[i].Data())
		joints[i] = joint
	}
	return m.Head.ForwardBatch(joints)
}
