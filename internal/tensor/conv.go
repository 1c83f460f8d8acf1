package tensor

import "fmt"

// ConvDims describes the geometry of a 2-D convolution with square kernels.
type ConvDims struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels (number of filters)
	K             int // kernel size (K×K)
	Stride        int
	Pad           int
}

// OutH returns the output height for the convolution geometry.
func (d ConvDims) OutH() int { return (d.InH+2*d.Pad-d.K)/d.Stride + 1 }

// OutW returns the output width for the convolution geometry.
func (d ConvDims) OutW() int { return (d.InW+2*d.Pad-d.K)/d.Stride + 1 }

// Validate reports whether the geometry produces a non-empty output.
func (d ConvDims) Validate() error {
	if d.InC <= 0 || d.InH <= 0 || d.InW <= 0 || d.OutC <= 0 || d.K <= 0 || d.Stride <= 0 || d.Pad < 0 {
		return fmt.Errorf("tensor: invalid conv dims %+v", d)
	}
	if d.OutH() <= 0 || d.OutW() <= 0 {
		return fmt.Errorf("tensor: conv dims %+v produce empty output %dx%d", d, d.OutH(), d.OutW())
	}
	return nil
}

// MACs returns the number of multiply-accumulate operations for one inference
// of the convolution. This is what the systolic-array simulator and the
// policy complexity analysis consume.
func (d ConvDims) MACs() int64 {
	return int64(d.OutC) * int64(d.OutH()) * int64(d.OutW()) * int64(d.InC) * int64(d.K) * int64(d.K)
}

// Im2col unrolls input (InC×InH×InW, flattened row-major) into a matrix of
// shape (InC*K*K) × (OutH*OutW) so convolution becomes a matrix product
// weights(OutC × InC*K*K) · cols. It is the allocating form of Im2colInto.
func Im2col(in *Tensor, d ConvDims) *Tensor {
	out := New(d.InC*d.K*d.K, d.OutH()*d.OutW())
	Im2colInto(out.data, in.data, d)
	return out
}

// Im2colInto writes the im2col matrix of in into dst. Only cells that read
// an input pixel are written: cells that fall on the zero padding are never
// touched, so a zeroed buffer that only Im2colInto writes keeps them zero
// across any number of calls with the same geometry.
func Im2colInto(dst, in []float64, d ConvDims) {
	if len(in) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Im2col input len %d, want %d", len(in), d.InC*d.InH*d.InW))
	}
	oh, ow := d.OutH(), d.OutW()
	rows := d.InC * d.K * d.K
	cols := oh * ow
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2col output len %d, want %d", len(dst), rows*cols))
	}
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := dst[((c*d.K+ky)*d.K+kx)*cols:][:cols]
				oy0, oy1 := d.validSpan(ky, oh, d.InH)
				ox0, ox1 := d.validSpan(kx, ow, d.InW)
				for oy := oy0; oy < oy1; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					src := in[(c*d.InH+iy)*d.InW:][:d.InW]
					out := row[oy*ow:][:ow]
					for ox := ox0; ox < ox1; ox++ {
						out[ox] = src[ox*d.Stride+kx-d.Pad]
					}
				}
			}
		}
	}
}

// validSpan returns the output positions [o0, o1), out of n along one axis,
// at which kernel tap k reads an input pixel rather than padding:
// 0 <= o·Stride + k - Pad < in. Im2col and Col2im visit exactly these, in
// ascending order, instead of testing every position.
func (d ConvDims) validSpan(k, n, in int) (o0, o1 int) {
	if lo := d.Pad - k; lo > 0 {
		o0 = (lo + d.Stride - 1) / d.Stride
	}
	o1 = (in + d.Pad - k + d.Stride - 1) / d.Stride
	o1 = min(o1, n)
	o0 = min(o0, o1)
	return o0, o1
}

// Col2im scatters a (InC*K*K) × (OutH*OutW) gradient matrix back onto the
// input layout, accumulating overlapping contributions. It is the adjoint of
// Im2col and is used by the convolution backward pass. It is the allocating
// form of Col2imInto.
func Col2im(cols *Tensor, d ConvDims) *Tensor {
	out := New(d.InC, d.InH, d.InW)
	Col2imInto(out.data, cols.data, d)
	return out
}

// Col2imInto overwrites dst (InC×InH×InW) with the Col2im scatter of cols:
// dst is cleared, then every contribution is added in Col2im's order.
func Col2imInto(dst, cols []float64, d ConvDims) {
	oh, ow := d.OutH(), d.OutW()
	rows := d.InC * d.K * d.K
	ncols := oh * ow
	if len(cols) != rows*ncols {
		panic(fmt.Sprintf("tensor: Col2im input len %d, want %d", len(cols), rows*ncols))
	}
	if len(dst) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Col2im output len %d, want %d", len(dst), d.InC*d.InH*d.InW))
	}
	clear(dst)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := cols[((c*d.K+ky)*d.K+kx)*ncols:][:ncols]
				oy0, oy1 := d.validSpan(ky, oh, d.InH)
				ox0, ox1 := d.validSpan(kx, ow, d.InW)
				for oy := oy0; oy < oy1; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					out := dst[(c*d.InH+iy)*d.InW:][:d.InW]
					src := row[oy*ow:][:ow]
					for ox := ox0; ox < ox1; ox++ {
						out[ox*d.Stride+kx-d.Pad] += src[ox]
					}
				}
			}
		}
	}
}
