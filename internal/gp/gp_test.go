package gp

import (
	"math"
	"testing"

	"autopilot/internal/tensor"
)

func TestSEKernelProperties(t *testing.T) {
	k := SE{Variance: 2, LengthScale: 1}
	a, b := []float64{0, 0}, []float64{1, 1}
	if got := k.Eval(a, a); math.Abs(got-2) > 1e-12 {
		t.Fatalf("k(a,a) = %g, want variance 2", got)
	}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel must be symmetric")
	}
	far := []float64{100, 100}
	if k.Eval(a, far) > 1e-10 {
		t.Fatal("kernel must vanish at long range")
	}
	if k.Eval(a, b) >= k.Eval(a, a) {
		t.Fatal("off-diagonal must be below the diagonal")
	}
}

func TestSEKernelDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SE{Variance: 1, LengthScale: 1}.Eval([]float64{1}, []float64{1, 2})
}

func TestCholeskyKnownMatrix(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, math.Sqrt(2)}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("L[%d][%d] = %g, want %g", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := Cholesky([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	g := tensor.NewRNG(1)
	n := 6
	// random SPD: A = B·Bᵀ + n·I
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = g.NormFloat64()
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			for p := 0; p < n; p++ {
				a[i][j] += b[i][p] * b[j][p]
			}
		}
		a[i][i] += float64(n)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rec := 0.0
			for p := 0; p < n; p++ {
				rec += l[i][p] * l[j][p]
			}
			if math.Abs(rec-a[i][j]) > 1e-9 {
				t.Fatalf("LLᵀ[%d][%d] = %g, want %g", i, j, rec, a[i][j])
			}
		}
	}
}

func TestSolveCholesky(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveCholesky(l, []float64{10, 8})
	// verify A·x = b
	if got := 4*x[0] + 2*x[1]; math.Abs(got-10) > 1e-10 {
		t.Fatalf("A·x row0 = %g", got)
	}
	if got := 2*x[0] + 3*x[1]; math.Abs(got-8) > 1e-10 {
		t.Fatalf("A·x row1 = %g", got)
	}
}

func trainGP(t *testing.T) (*GP, [][]float64, []float64) {
	t.Helper()
	var x [][]float64
	var y []float64
	for i := 0; i <= 10; i++ {
		xi := float64(i) / 10 * 2 * math.Pi
		x = append(x, []float64{xi})
		y = append(y, math.Sin(xi))
	}
	g, err := Fit(x, y, SE{Variance: 1, LengthScale: 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	return g, x, y
}

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	g, x, y := trainGP(t)
	for i := range x {
		m, v := g.Predict(x[i])
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("mean at train point %v = %g, want %g", x[i], m, y[i])
		}
		if v > 1e-4 {
			t.Fatalf("variance at train point = %g, want ~0", v)
		}
	}
}

func TestGPGeneralizesBetweenPoints(t *testing.T) {
	g, _, _ := trainGP(t)
	for _, xq := range []float64{0.55, 1.7, 3.33, 5.01} {
		m, _ := g.Predict([]float64{xq})
		if math.Abs(m-math.Sin(xq)) > 0.05 {
			t.Fatalf("mean at %g = %g, want ~%g", xq, m, math.Sin(xq))
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	g, _, _ := trainGP(t)
	_, nearVar := g.Predict([]float64{1.0})
	_, farVar := g.Predict([]float64{20.0})
	if farVar <= nearVar {
		t.Fatalf("far variance %g <= near variance %g", farVar, nearVar)
	}
	if farVar > 1.0+1e-9 {
		t.Fatalf("far variance %g exceeds prior variance", farVar)
	}
}

func TestFitErrors(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	if _, err := Fit(nil, nil, k, 1e-6); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, k, 1e-6); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, k, 0); err == nil {
		t.Fatal("expected error for zero noise")
	}
}

func TestFitDuplicatePointsStableWithNoise(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	x := [][]float64{{1}, {1}, {2}}
	y := []float64{0.9, 1.1, 2}
	g, err := Fit(x, y, k, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{1})
	if math.Abs(m-1.0) > 0.1 {
		t.Fatalf("duplicate-point mean = %g, want ~1.0", m)
	}
}

func TestGPCopiesTrainingInputs(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	x := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	g, err := Fit(x, y, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.Predict([]float64{1})
	x[0][0] = 100 // mutate the caller's slice
	after, _ := g.Predict([]float64{1})
	if before != after {
		t.Fatal("GP must defensively copy training inputs")
	}
}

func TestLogMarginalLikelihoodPrefersTrueScale(t *testing.T) {
	// data from a smooth function: a moderate length scale must beat an
	// absurdly tiny one
	var x [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		xi := float64(i) / 20 * 2 * math.Pi
		x = append(x, []float64{xi})
		y = append(y, math.Sin(xi))
	}
	fit := func(scale float64) float64 {
		g, err := Fit(x, y, SE{Variance: 1, LengthScale: scale}, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		return g.LogMarginalLikelihood(y)
	}
	if fit(1.0) <= fit(0.01) {
		t.Fatal("length scale 1.0 must have higher evidence than 0.01 on sin(x)")
	}
}

func TestSelectLengthScale(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		xi := float64(i) / 20 * 2 * math.Pi
		x = append(x, []float64{xi})
		y = append(y, math.Sin(xi))
	}
	got, err := SelectLengthScale(x, y, 1, 1e-6, []float64{0.01, 0.1, 1.0, 10.0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.0 {
		t.Fatalf("selected scale %g, want 1.0", got)
	}
	if _, err := SelectLengthScale(x, y, 1, 1e-6, nil); err == nil {
		t.Fatal("expected error for empty scale list")
	}
	if _, err := SelectLengthScale(x, y, 1, 1e-6, []float64{-1}); err == nil {
		t.Fatal("expected error for negative scale")
	}
}

func TestLogMarginalLikelihoodLengthMismatchPanics(t *testing.T) {
	g, _, y := trainGP(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.LogMarginalLikelihood(y[:3])
}

// TestFitMultiMatchesFitBitwise pins the shared factor: every output of one
// FitMulti must predict exactly what a separate Fit on that output does,
// both on a well-conditioned fit and on one rescued by jitter.
func TestFitMultiMatchesFitBitwise(t *testing.T) {
	g := tensor.NewRNG(4)
	k := SE{Variance: 1, LengthScale: 0.4}
	random := make([][]float64, 30)
	for i := range random {
		random[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
	}
	singular := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {0, 0, 0}}
	for _, tc := range []struct {
		name  string
		x     [][]float64
		noise float64
	}{{"well-conditioned", random, 1e-6}, {"jittered", singular, 1e-18}} {
		ys := make([][]float64, 3)
		for j := range ys {
			ys[j] = make([]float64, len(tc.x))
			for i := range ys[j] {
				ys[j][i] = g.NormFloat64()
			}
		}
		multi, err := FitMulti(tc.x, ys, k, tc.noise)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		means, buf := make([]float64, len(ys)), make([]float64, len(tc.x))
		for trial := 0; trial < 20; trial++ {
			q := []float64{g.Float64(), g.Float64(), g.Float64()}
			v := multi.PredictInto(q, means, buf)
			for j, y := range ys {
				single, err := Fit(tc.x, y, k, tc.noise)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				m1, v1 := single.Predict(q)
				if means[j] != m1 || v != v1 {
					t.Fatalf("%s output %d at %v: multi (%x, %x), single (%x, %x)", tc.name, j, q, means[j], v, m1, v1)
				}
			}
		}
	}
}

func TestPredictIntoAllocationFree(t *testing.T) {
	g, x, _ := trainGP(t)
	means, buf := make([]float64, 1), make([]float64, len(x))
	q := []float64{0.3}
	if allocs := testing.AllocsPerRun(20, func() { g.PredictInto(q, means, buf) }); allocs != 0 {
		t.Fatalf("PredictInto allocated %v times per call", allocs)
	}
}

func TestPredictIntoOutputCountMismatchPanics(t *testing.T) {
	g, x, _ := trainGP(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.PredictInto([]float64{0.3}, make([]float64, 2), make([]float64, len(x)))
}

func TestFitMultiErrors(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	x := [][]float64{{0}, {1}}
	if _, err := FitMulti(x, [][]float64{{0, 1}, {0}}, k, 1e-6); err == nil {
		t.Fatal("expected error for a short second output")
	}
	if _, err := FitMulti(x, [][]float64{{0, 1}, {0, math.NaN()}}, k, 1e-6); err == nil {
		t.Fatal("expected error for a non-finite second output")
	}
}

// dented is SE with its diagonal lowered by half the variance, behind a
// non-SE type so PredictBlock takes its generic per-pair kernel path. Far
// apart training points keep the covariance positive definite, but a query
// near a training point gets a negative raw variance (below -1 right next
// to it, between -1 and 0 a little further off), which both predictors must
// clamp to 0.
type dented struct{ SE }

func (k dented) Eval(a, b []float64) float64 {
	v := k.SE.Eval(a, b)
	for i := range a {
		if a[i] != b[i] {
			return v
		}
	}
	return v - k.Variance/2
}

// TestPredictBlockMatchesPredictIntoBitwise checks every mean and variance
// PredictBlock returns against PredictInto on the same query, bit for bit:
// with 1, 4 and 7 training points, one and three outputs, the SE fast path
// and the generic kernel path, and queries whose variance is clamped at 0.
func TestPredictBlockMatchesPredictIntoBitwise(t *testing.T) {
	g := tensor.NewRNG(11)
	clamped := 0
	for _, n := range []int{1, 4, 7} {
		for _, m := range []int{1, 3} {
			for _, kernel := range []Kernel{SE{Variance: 1.3, LengthScale: 2.5}, dented{SE{Variance: 1, LengthScale: 0.05}}} {
				x := make([][]float64, n)
				ys := make([][]float64, m)
				for i := range x {
					x[i] = []float64{float64(i), g.Float64(), g.Float64()}
				}
				for j := range ys {
					ys[j] = make([]float64, n)
					for i := range ys[j] {
						ys[j][i] = g.Float64()*2 - 1
					}
				}
				gp, err := FitMulti(x, ys, kernel, 1e-9)
				if err != nil {
					t.Fatal(err)
				}
				// Queries: every training point, two points near each, then
				// random points up to whole blocks.
				var qs [][]float64
				qs = append(qs, x...)
				for _, xi := range x {
					qs = append(qs, []float64{xi[0] + 1e-3, xi[1], xi[2]}, []float64{xi[0], xi[1] + 0.05, xi[2]})
				}
				for len(qs)%Block != 0 || len(qs) < 4*Block {
					qs = append(qs, []float64{g.Float64(), g.Float64(), g.Float64()})
				}
				var means [Block][]float64
				for t := range means {
					means[t] = make([]float64, m)
				}
				want, buf := make([]float64, m), make([]float64, n)
				block := make([][Block]float64, n)
				for b := 0; b < len(qs); b += Block {
					vs := gp.PredictBlock([Block][]float64(qs[b:b+Block]), means, block)
					for q := 0; q < Block; q++ {
						wv := gp.PredictInto(qs[b+q], want, buf)
						if wv == 0 {
							clamped++
						}
						if math.Float64bits(vs[q]) != math.Float64bits(wv) {
							t.Fatalf("n=%d m=%d %T query %d: variance %x, PredictInto %x", n, m, kernel, b+q, vs[q], wv)
						}
						for j := range want {
							if math.Float64bits(means[q][j]) != math.Float64bits(want[j]) {
								t.Fatalf("n=%d m=%d %T query %d output %d: mean %x, PredictInto %x", n, m, kernel, b+q, j, means[q][j], want[j])
							}
						}
					}
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no query reached the variance clamp")
	}
}
