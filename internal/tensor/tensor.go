// Package tensor provides the minimal dense float64 tensor math used by the
// neural-network and reinforcement-learning substrates. It is deliberately
// small: shapes, element access, matrix multiplication, and the im2col
// transform needed for 2-D convolutions. The matrix and im2col kernels come
// in an in-place form over caller-owned slices (MatMulInto,
// MatMulTransBInto, MatMulTransAInto, Im2colInto, Col2imInto), which the
// neural-network layers call with buffers they keep across samples; MatMul,
// Im2col and Col2im are thin allocating wrappers over them. Everything is
// deterministic given a seeded RNG so experiments are reproducible.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// A tensor with no dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); callers must not alias it unless they intend to.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v requires %d elements, got %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage in row-major order.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape covering the same elements.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddInPlace adds o element-wise into t.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustSameLen(t, o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
}

// SubInPlace subtracts o element-wise from t.
func (t *Tensor) SubInPlace(o *Tensor) {
	mustSameLen(t, o, "SubInPlace")
	for i, v := range o.data {
		t.data[i] -= v
	}
}

// ScaleInPlace multiplies every element by a.
func (t *Tensor) ScaleInPlace(a float64) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// AxpyInPlace computes t += a*o element-wise.
func (t *Tensor) AxpyInPlace(a float64, o *Tensor) {
	mustSameLen(t, o, "AxpyInPlace")
	for i, v := range o.data {
		t.data[i] += a * v
	}
}

// Add returns t + o element-wise.
func Add(t, o *Tensor) *Tensor {
	mustSameLen(t, o, "Add")
	r := t.Clone()
	r.AddInPlace(o)
	return r
}

// Sub returns t - o element-wise.
func Sub(t, o *Tensor) *Tensor {
	mustSameLen(t, o, "Sub")
	r := t.Clone()
	r.SubInPlace(o)
	return r
}

// Mul returns the element-wise (Hadamard) product of t and o.
func Mul(t, o *Tensor) *Tensor {
	mustSameLen(t, o, "Mul")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] *= v
	}
	return r
}

// Scale returns a*t.
func Scale(a float64, t *Tensor) *Tensor {
	r := t.Clone()
	r.ScaleInPlace(a)
	return r
}

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float64) float64) *Tensor {
	r := New(t.shape...)
	for i, v := range t.data {
		r.data[i] = f(v)
	}
	return r
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element and its flat index.
func (t *Tensor) Max() (float64, int) {
	best, arg := math.Inf(-1), -1
	for i, v := range t.data {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Dot returns the inner product of two equal-length tensors.
func Dot(a, b *Tensor) float64 {
	mustSameLen(a, b, "Dot")
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatMul returns the matrix product of a (m×k) and b (k×n). It is the
// allocating form of MatMulInto.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims mismatch %d vs %d", k, k2))
	}
	out := New(m, n)
	MatMulInto(out.data, a.data, b.data, m, k, n)
	return out
}

// The three GEMM kernels below work on raw row-major slices and write a
// caller-owned dst of m×n elements, so a layer can keep its buffers across
// calls. They share one per-element contract: dst[i][j] starts at +0 and
// adds a-element × b-element over the contraction index p = 0..k-1 in
// ascending order, skipping every term whose a-element is exactly zero. The
// transposed forms therefore equal MatMul on an explicitly transposed
// operand bit for bit, without building the transpose.

// MatMulInto computes dst = a·b for a (m×k) and b (k×n).
func MatMulInto(dst, a, b []float64, m, k, n int) {
	checkGemm("MatMulInto", dst, a, b, m*n, m*k, k*n)
	for i := 0; i < m; i++ {
		orow := dst[i*n : (i+1)*n]
		clear(orow)
		addTerms(orow, a[i*k:], 1, k, b)
	}
}

// addTerms adds coef[p·stride]·b[p·n : (p+1)·n] into o (n = len(o)) for
// p = 0..k-1 in ascending order, skipping zero coefficients: the row update
// every GEMM kernel here performs. The nonzero terms are applied four at a
// time in one pass over o, so each o[j] is loaded and stored once per four
// terms and still receives them one by one, in order.
func addTerms(o, coef []float64, stride, k int, b []float64) {
	n := len(o)
	var ps [4]int
	cnt := 0
	for p := 0; p < k; p++ {
		if coef[p*stride] == 0 {
			continue
		}
		ps[cnt] = p
		cnt++
		if cnt < 4 {
			continue
		}
		cnt = 0
		a0, a1, a2, a3 := coef[ps[0]*stride], coef[ps[1]*stride], coef[ps[2]*stride], coef[ps[3]*stride]
		b0 := b[ps[0]*n:][:n]
		b1 := b[ps[1]*n:][:n]
		b2 := b[ps[2]*n:][:n]
		b3 := b[ps[3]*n:][:n]
		for j, v := range o {
			o[j] = v + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for _, p := range ps[:cnt] {
		av := coef[p*stride]
		for j, bv := range b[p*n:][:n] {
			o[j] += av * bv
		}
	}
}

// MatMulTransBInto computes dst = a·bᵀ for a (m×k) and b (n×k): every output
// is a dot product of two contiguous rows. Four outputs are accumulated per
// pass over a row of a, each in its own register, which overlaps their
// latency without reordering any one sum.
func MatMulTransBInto(dst, a, b []float64, m, k, n int) {
	checkGemm("MatMulTransBInto", dst, a, b, m*n, m*k, n*k)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			brow = brow[:len(arow)]
			var s float64
			for p, av := range arow {
				if av == 0 {
					continue
				}
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// MatMulTransAInto computes dst = aᵀ·b for a (k×m) and b (k×n), reading the
// columns of a in place.
func MatMulTransAInto(dst, a, b []float64, m, k, n int) {
	checkGemm("MatMulTransAInto", dst, a, b, m*n, k*m, k*n)
	for i := 0; i < m; i++ {
		orow := dst[i*n : (i+1)*n]
		clear(orow)
		addTerms(orow, a[i:], m, k, b)
	}
}

func checkGemm(op string, dst, a, b []float64, nDst, nA, nB int) {
	if len(dst) != nDst || len(a) != nA || len(b) != nB {
		panic(fmt.Sprintf("tensor: %s operand lengths dst %d, a %d, b %d; want %d, %d, %d",
			op, len(dst), len(a), len(b), nDst, nA, nB))
	}
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	_, i := t.Max()
	return i
}

// Equal reports whether two tensors have identical shape and elements within tol.
func Equal(a, b *Tensor, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

func mustSameLen(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %v vs %v", op, a.shape, b.shape))
	}
}
