package tensor

import (
	"math"
	"testing"
)

// The in-place kernels must reproduce the allocating reference arithmetic
// bit for bit: training goldens pin whole DQN runs on them, so a single
// reordered addition would show up as a different trained network.

// refMatMul is the reference ikj product every GEMM kernel is held to:
// outputs start at +0 and add a[i][p]·b[p][j] for p ascending, skipping
// exactly-zero a[i][p].
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[p*n+j]
			}
		}
	}
	return out
}

// transpose is a test-local transpose of a rank-2 tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// spiky returns a random (r×c) matrix in which roughly a quarter of the
// entries are +0 or -0, so the zero-skip and the sign of zero are exercised.
func spiky(g *RNG, r, c int) *Tensor {
	t := g.Randn(1, r, c)
	for i := range t.data {
		switch g.Intn(8) {
		case 0:
			t.data[i] = 0
		case 1:
			t.data[i] = math.Copysign(0, -1)
		}
	}
	return t
}

func bitsEqual(t *testing.T, what string, got []float64, want *Tensor) {
	t.Helper()
	if len(got) != want.Len() {
		t.Fatalf("%s: len %d, want %d", what, len(got), want.Len())
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)",
				what, i, v, math.Float64bits(v), want.data[i], math.Float64bits(want.data[i]))
		}
	}
}

// dirty returns a buffer of n NaNs: a kernel that reads its destination
// before overwriting it would leak them into the result.
func dirty(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.NaN()
	}
	return d
}

func TestGEMMKernelsMatchMatMulBitwise(t *testing.T) {
	g := NewRNG(21)
	for trial := 0; trial < 200; trial++ {
		// Sizes 1..13 cover the 4-wide blocks, their remainders and
		// shapes below one block.
		m, k, n := 1+g.Intn(13), 1+g.Intn(13), 1+g.Intn(13)
		a, b := spiky(g, m, k), spiky(g, k, n)
		if trial%10 == 0 {
			a.Zero() // an all-zero row skips every term
		}
		want := refMatMul(a, b)
		bitsEqual(t, "MatMul", MatMul(a, b).data, want)

		dst := dirty(m * n)
		MatMulInto(dst, a.data, b.data, m, k, n)
		bitsEqual(t, "MatMulInto", dst, want)

		// A·Bᵀ with b stored as (n×k), Aᵀ·B with a stored as (k×m).
		bt := spiky(g, n, k)
		dst = dirty(m * n)
		MatMulTransBInto(dst, a.data, bt.data, m, k, n)
		bitsEqual(t, "MatMulTransBInto", dst, MatMul(a, transpose(bt)))

		at := spiky(g, k, m)
		dst = dirty(m * n)
		MatMulTransAInto(dst, at.data, b.data, m, k, n)
		bitsEqual(t, "MatMulTransAInto", dst, MatMul(transpose(at), b))
	}
}

func TestGEMMKernelsReuseOutputBuffer(t *testing.T) {
	g := NewRNG(22)
	const m, k, n = 6, 9, 7
	dst := dirty(m * n)
	for call := 0; call < 5; call++ {
		a, b := spiky(g, m, k), spiky(g, k, n)
		MatMulInto(dst, a.data, b.data, m, k, n)
		bitsEqual(t, "MatMulInto reuse", dst, MatMul(a, b))
		bt := spiky(g, n, k)
		MatMulTransBInto(dst, a.data, bt.data, m, k, n)
		bitsEqual(t, "MatMulTransBInto reuse", dst, MatMul(a, transpose(bt)))
		at := spiky(g, k, m)
		MatMulTransAInto(dst, at.data, b.data, m, k, n)
		bitsEqual(t, "MatMulTransAInto reuse", dst, MatMul(transpose(at), b))
	}
}

func TestGEMMKernelsRejectBadLengths(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMulInto":       func() { MatMulInto(make([]float64, 5), make([]float64, 6), make([]float64, 6), 2, 3, 2) },
		"MatMulTransBInto": func() { MatMulTransBInto(make([]float64, 4), make([]float64, 6), make([]float64, 5), 2, 3, 2) },
		"MatMulTransAInto": func() { MatMulTransAInto(make([]float64, 4), make([]float64, 7), make([]float64, 6), 2, 3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestIm2colIntoNeverWritesPadding pins the property a layer's reused
// im2col buffer relies on: padding cells are never written, so a zeroed
// buffer stays zero there for every later input.
func TestIm2colIntoNeverWritesPadding(t *testing.T) {
	g := NewRNG(23)
	for _, d := range []ConvDims{
		{InC: 1, InH: 11, InW: 11, OutC: 6, K: 3, Stride: 2, Pad: 1},
		{InC: 6, InH: 6, InW: 6, OutC: 6, K: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 9, OutC: 3, K: 5, Stride: 2, Pad: 2},
	} {
		in := g.Randn(1, d.InC, d.InH, d.InW)
		for i := range in.data {
			if in.data[i] == 0 {
				in.data[i] = 1 // keep real pixels distinguishable from padding
			}
		}
		want := Im2col(in, d)
		dst := dirty(want.Len())
		Im2colInto(dst, in.data, d)
		pad := 0
		for i, v := range dst {
			if math.IsNaN(v) {
				pad++
				if want.data[i] != 0 {
					t.Fatalf("%+v: cell %d left unwritten but holds pixel %v", d, i, want.data[i])
				}
				continue
			}
			if math.Float64bits(v) != math.Float64bits(want.data[i]) {
				t.Fatalf("%+v: cell %d = %v, want %v", d, i, v, want.data[i])
			}
		}
		if pad == 0 {
			t.Fatalf("%+v: geometry has no padding cells", d)
		}

		// A zeroed buffer reused across inputs matches a fresh Im2col.
		buf := make([]float64, want.Len())
		for call := 0; call < 3; call++ {
			x := g.Randn(1, d.InC, d.InH, d.InW)
			Im2colInto(buf, x.data, d)
			bitsEqual(t, "Im2colInto reuse", buf, Im2col(x, d))
		}
	}
}

func TestCol2imIntoOverwritesDestination(t *testing.T) {
	g := NewRNG(24)
	d := ConvDims{InC: 2, InH: 6, InW: 6, OutC: 3, K: 3, Stride: 2, Pad: 1}
	dst := dirty(d.InC * d.InH * d.InW)
	for call := 0; call < 3; call++ {
		cols := spiky(g, d.InC*d.K*d.K, d.OutH()*d.OutW())
		Col2imInto(dst, cols.data, d)
		bitsEqual(t, "Col2imInto", dst, Col2im(cols, d))
	}
}

// refIm2col and refCol2im are the reference gathers: every (row, oy, ox)
// cell is visited and tested against the input bounds.
func refIm2col(in *Tensor, d ConvDims) *Tensor {
	oh, ow := d.OutH(), d.OutW()
	cols := oh * ow
	out := New(d.InC*d.K*d.K, cols)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							out.data[row*cols+oy*ow+ox] = in.data[(c*d.InH+iy)*d.InW+ix]
						}
					}
				}
			}
		}
	}
	return out
}

func refCol2im(cols *Tensor, d ConvDims) *Tensor {
	oh, ow := d.OutH(), d.OutW()
	n := oh * ow
	out := New(d.InC, d.InH, d.InW)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							out.data[(c*d.InH+iy)*d.InW+ix] += cols.data[row*n+oy*ow+ox]
						}
					}
				}
			}
		}
	}
	return out
}

// TestIm2colCol2imMatchReferenceBitwise checks the span-based gathers
// against the per-cell reference over random geometries: strides 1-3,
// kernels 1-5 and paddings up to and beyond the kernel radius.
func TestIm2colCol2imMatchReferenceBitwise(t *testing.T) {
	g := NewRNG(25)
	tried := 0
	for tried < 300 {
		d := ConvDims{
			InC: 1 + g.Intn(3), InH: 1 + g.Intn(9), InW: 1 + g.Intn(9),
			OutC: 1, K: 1 + g.Intn(5), Stride: 1 + g.Intn(3), Pad: g.Intn(4),
		}
		if d.Validate() != nil {
			continue
		}
		tried++
		in := spiky(g, d.InC, d.InH*d.InW)
		bitsEqual(t, "Im2col", Im2col(in, d).data, refIm2col(in, d))
		cols := spiky(g, d.InC*d.K*d.K, d.OutH()*d.OutW())
		bitsEqual(t, "Col2im", Col2im(cols, d).data, refCol2im(cols, d))
	}
}
