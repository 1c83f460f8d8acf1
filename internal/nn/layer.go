// Package nn implements the small neural-network substrate used to train and
// run the end-to-end (E2E) UAV autonomy policies: dense and convolutional
// layers with hand-derived backward passes, common activations, losses, and
// SGD/Adam optimizers.
//
// Training runs one sample at a time through Forward and Backward, which is
// all the reinforcement-learning trainer needs. Every layer owns the
// buffers those two calls write — outputs, input gradients, the im2col
// matrix and per-sample products — and reuses them from sample to sample,
// so a training step allocates nothing once the buffers exist. The cost is
// a validity contract: a tensor returned by a training-mode Forward (or
// Backward) is valid only until the next Forward (or Backward) on the same
// network; copy it (Clone) to keep it longer. Inference over many inputs
// goes through ForwardBatch instead, which runs the same kernels on
// buffers it allocates per call, so it returns fresh tensors, writes no
// layer state and is safe for concurrent use on a frozen network.
package nn

import (
	"fmt"
	"math"

	"autopilot/internal/tensor"
)

// Layer is a differentiable network stage. Forward caches whatever Backward
// needs; Backward receives dLoss/dOutput and returns dLoss/dInput while
// accumulating parameter gradients. A stock layer returns tensors it owns
// and overwrites on its next call: a Forward result is valid until the next
// Forward on the layer, a Backward result until the next Backward. Callers
// must not modify either.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*tensor.Tensor
	Grads() []*tensor.Tensor
}

// paramGradLayer is implemented by layers that can accumulate their
// parameter gradients without computing the input gradient. A network's
// first layer uses it when nothing consumes dLoss/dInput, as in the two
// MultiModal trunks.
type paramGradLayer interface {
	backwardParams(grad *tensor.Tensor)
}

// Dense is a fully connected layer: y = W·x + b.
type Dense struct {
	W, B   *tensor.Tensor // W: (out, in), B: (out)
	gw, gb *tensor.Tensor
	in     *tensor.Tensor // cached input of the last Forward
	y, dx  *tensor.Tensor // Forward output and Backward input gradient
}

// NewDense returns a Dense layer with He-style initialization.
func NewDense(in, out int, g *tensor.RNG) *Dense {
	std := 1.0
	if in > 0 {
		std = sqrtf(2.0 / float64(in))
	}
	return &Dense{
		W:  g.Randn(std, out, in),
		B:  tensor.New(out),
		gw: tensor.New(out, in),
		gb: tensor.New(out),
	}
}

// InDim returns the input width.
func (d *Dense) InDim() int { return d.W.Dim(1) }

// OutDim returns the output width.
func (d *Dense) OutDim() int { return d.W.Dim(0) }

// Forward computes W·x + b for a flattened input.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.mustInput(x)
	d.in = x
	if d.y == nil {
		d.y = tensor.New(d.OutDim())
	}
	d.forward(d.y.Data(), x.Data())
	return d.y
}

func (d *Dense) mustInput(x *tensor.Tensor) {
	if x.Len() != d.InDim() {
		panic(fmt.Sprintf("nn: Dense input len %d, want %d", x.Len(), d.InDim()))
	}
}

// forward writes W·x + b into y. Each output starts from its bias and adds
// W[o][i]·x[i] for i ascending; four outputs share every pass over x, each
// in its own accumulator, which hides the add latency without reordering
// any one sum.
func (d *Dense) forward(y, x []float64) {
	in := len(x)
	wd, bd := d.W.Data(), d.B.Data()
	o := 0
	for ; o+4 <= len(y); o += 4 {
		r0 := wd[o*in : (o+1)*in]
		r1 := wd[(o+1)*in : (o+2)*in]
		r2 := wd[(o+2)*in : (o+3)*in]
		r3 := wd[(o+3)*in : (o+4)*in]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		s0, s1, s2, s3 := bd[o], bd[o+1], bd[o+2], bd[o+3]
		for i, xv := range x {
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < len(y); o++ {
		row := wd[o*in : (o+1)*in]
		row = row[:len(x)]
		s := bd[o]
		for i, xv := range x {
			s += row[i] * xv
		}
		y[o] = s
	}
}

// Backward accumulates dW, dB and returns dX.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	out, in := d.OutDim(), d.InDim()
	if d.dx == nil {
		d.dx = tensor.New(in)
	}
	// dX = gᵀ·W: each dX[i] adds g[o]·W[o][i] for o ascending, skipping
	// zero g[o].
	tensor.MatMulInto(d.dx.Data(), grad.Data(), d.W.Data(), 1, out, in)
	return d.dx
}

// backwardParams accumulates dW and dB only.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	out, in := d.OutDim(), d.InDim()
	if grad.Len() != out {
		panic(fmt.Sprintf("nn: Dense grad len %d, want %d", grad.Len(), out))
	}
	gd, xd := grad.Data(), d.in.Data()
	gwd, gbd := d.gw.Data(), d.gb.Data()
	for o := 0; o < out; o++ {
		gbd[o] += gd[o]
	}
	for o := 0; o < out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		grow := gwd[o*in : (o+1)*in]
		grow = grow[:len(xd)]
		for i, xv := range xd {
			grow[i] += g * xv
		}
	}
}

// Params returns the trainable tensors.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads returns the accumulated gradients, parallel to Params.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gw, d.gb} }

// Conv2D is a 2-D convolution over a CHW input, implemented via im2col.
type Conv2D struct {
	Dims   tensor.ConvDims
	W, B   *tensor.Tensor // W: (OutC, InC*K*K), B: (OutC)
	gw, gb *tensor.Tensor

	// Training workspace, allocated by the first Forward/Backward.
	cols  []float64      // im2col matrix of the last Forward input
	y     *tensor.Tensor // Forward output (OutC, OutH, OutW)
	dw    []float64      // per-sample dW product, added into gw
	dcols []float64      // Wᵀ·grad, scattered into dx
	dx    *tensor.Tensor // Backward input gradient (InC, InH, InW)
}

// NewConv2D returns a Conv2D layer with He-style initialization.
func NewConv2D(d tensor.ConvDims, g *tensor.RNG) *Conv2D {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	fanIn := d.InC * d.K * d.K
	std := sqrtf(2.0 / float64(fanIn))
	return &Conv2D{
		Dims: d,
		W:    g.Randn(std, d.OutC, fanIn),
		B:    tensor.New(d.OutC),
		gw:   tensor.New(d.OutC, fanIn),
		gb:   tensor.New(d.OutC),
	}
}

// fanIn is the im2col row count, InC·K·K.
func (c *Conv2D) fanIn() int { return c.Dims.InC * c.Dims.K * c.Dims.K }

// hw is the output plane size, OutH·OutW.
func (c *Conv2D) hw() int { return c.Dims.OutH() * c.Dims.OutW() }

// Forward convolves a flattened CHW input and returns a (OutC, OutH, OutW) tensor.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if c.y == nil {
		c.cols = make([]float64, c.fanIn()*c.hw())
		c.y = tensor.New(c.Dims.OutC, c.Dims.OutH(), c.Dims.OutW())
	}
	c.forward(c.y.Data(), c.cols, x.Data())
	return c.y
}

// forward writes the convolution of x into y (OutC × OutH·OutW), using cols
// as the im2col workspace: y = W·cols, then the bias. A zero bias is
// skipped rather than added, which keeps a -0 output -0.
func (c *Conv2D) forward(y, cols, x []float64) {
	tensor.Im2colInto(cols, x, c.Dims)
	hw := c.hw()
	tensor.MatMulInto(y, c.W.Data(), cols, c.Dims.OutC, c.fanIn(), hw)
	for oc, b := range c.B.Data() {
		if b == 0 {
			continue
		}
		row := y[oc*hw : (oc+1)*hw]
		for i := range row {
			row[i] += b
		}
	}
}

// Backward accumulates dW, dB and returns the gradient w.r.t. the input.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	if c.dx == nil {
		c.dcols = make([]float64, c.fanIn()*c.hw())
		c.dx = tensor.New(c.Dims.InC, c.Dims.InH, c.Dims.InW)
	}
	// dX = col2im(Wᵀ · g2)
	tensor.MatMulTransAInto(c.dcols, c.W.Data(), grad.Data(), c.fanIn(), c.Dims.OutC, c.hw())
	tensor.Col2imInto(c.dx.Data(), c.dcols, c.Dims)
	return c.dx
}

// backwardParams accumulates dW and dB only. dW for the sample is formed in
// full in the dw workspace before it is added into the running gradient, so
// the accumulation rounds exactly as adding a freshly computed product.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	hw, fanIn := c.hw(), c.fanIn()
	if grad.Len() != c.Dims.OutC*hw {
		panic(fmt.Sprintf("nn: Conv2D grad len %d, want %d", grad.Len(), c.Dims.OutC*hw))
	}
	if c.dw == nil {
		c.dw = make([]float64, c.Dims.OutC*fanIn)
	}
	gd := grad.Data()
	// dW += g2 · colsᵀ
	tensor.MatMulTransBInto(c.dw, gd, c.cols, c.Dims.OutC, hw, fanIn)
	gwd := c.gw.Data()
	for i, v := range c.dw {
		gwd[i] += v
	}
	// dB += row sums of g2
	gbd := c.gb.Data()
	for oc := range gbd {
		s := 0.0
		for _, v := range gd[oc*hw : (oc+1)*hw] {
			s += v
		}
		gbd[oc] += s
	}
}

// Params returns the trainable tensors.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns the accumulated gradients, parallel to Params.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gw, c.gb} }

func sqrtf(x float64) float64 { return math.Sqrt(x) }
