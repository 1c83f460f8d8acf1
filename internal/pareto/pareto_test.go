package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"autopilot/internal/tensor"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestWeaklyDominates(t *testing.T) {
	if !WeaklyDominates([]float64{1, 1}, []float64{1, 1}) {
		t.Error("equal points weakly dominate each other")
	}
	if WeaklyDominates([]float64{2, 1}, []float64{1, 1}) {
		t.Error("worse point must not weakly dominate")
	}
}

func TestNonDominatedSimpleFront(t *testing.T) {
	pts := [][]float64{
		{1, 5}, // front
		{3, 3}, // front
		{5, 1}, // front
		{4, 4}, // dominated by (3,3)
		{6, 6}, // dominated
	}
	idx := NonDominated(pts)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("NonDominated = %v", idx)
	}
}

func TestNonDominatedAntisymmetry(t *testing.T) {
	g := tensor.NewRNG(1)
	f := func(seed uint8) bool {
		_ = seed
		n := 2 + g.Intn(10)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		}
		// no point on the returned front may dominate another front point
		idx := NonDominated(pts)
		for _, i := range idx {
			for _, j := range idx {
				if i != j && Dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		// every excluded point must be dominated by someone
		inFront := map[int]bool{}
		for _, i := range idx {
			inFront[i] = true
		}
		for i := range pts {
			if inFront[i] {
				continue
			}
			dominated := false
			for j := range pts {
				if i != j && Dominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHypervolume1D(t *testing.T) {
	hv := Hypervolume([][]float64{{2}, {5}}, []float64{10})
	if math.Abs(hv-8) > 1e-12 {
		t.Fatalf("hv = %g, want 8", hv)
	}
}

func TestHypervolume2DKnown(t *testing.T) {
	// front (1,3), (2,2), (3,1), ref (4,4):
	// boxes: (4-1)(4-3)=3 plus (4-2)(3-2)=2 plus (4-3)(2-1)=1 → 6
	pts := [][]float64{{1, 3}, {2, 2}, {3, 1}}
	hv := Hypervolume(pts, []float64{4, 4})
	if math.Abs(hv-6) > 1e-12 {
		t.Fatalf("hv = %g, want 6", hv)
	}
}

func TestHypervolume3DKnown(t *testing.T) {
	// two non-overlapping unit cubes at (0,0,0) and ref (2,2,2):
	// single point (1,1,1) → volume 1; point (0,0,0) → volume 8
	if hv := Hypervolume([][]float64{{1, 1, 1}}, []float64{2, 2, 2}); math.Abs(hv-1) > 1e-12 {
		t.Fatalf("hv = %g, want 1", hv)
	}
	if hv := Hypervolume([][]float64{{0, 0, 0}}, []float64{2, 2, 2}); math.Abs(hv-8) > 1e-12 {
		t.Fatalf("hv = %g, want 8", hv)
	}
	// overlapping pair: (0,1,1) and (1,0,1), ref (2,2,2)
	// inclusive volumes 2·1·1=2 each, intersection (1,1,1)-box = 1·1·1=1 → union 3
	hv := Hypervolume([][]float64{{0, 1, 1}, {1, 0, 1}}, []float64{2, 2, 2})
	if math.Abs(hv-3) > 1e-12 {
		t.Fatalf("hv = %g, want 3", hv)
	}
}

func TestHypervolumeDominatedPointNoEffect(t *testing.T) {
	pts := [][]float64{{1, 3}, {3, 1}}
	ref := []float64{4, 4}
	base := Hypervolume(pts, ref)
	with := Hypervolume(append(pts, []float64{3.5, 3.5}), ref)
	if math.Abs(base-with) > 1e-12 {
		t.Fatalf("dominated point changed hv: %g vs %g", base, with)
	}
}

func TestHypervolumePointOutsideRefIgnored(t *testing.T) {
	pts := [][]float64{{1, 1}}
	ref := []float64{2, 2}
	base := Hypervolume(pts, ref)
	with := Hypervolume(append(pts, []float64{5, 0.5}), ref)
	if with < base {
		t.Fatalf("hv decreased: %g -> %g", base, with)
	}
}

func TestHypervolumeMonotoneUnderAddition(t *testing.T) {
	g := tensor.NewRNG(2)
	ref := []float64{1, 1, 1}
	f := func(seed uint8) bool {
		_ = seed
		n := 1 + g.Intn(8)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		}
		base := Hypervolume(pts, ref)
		extra := []float64{g.Float64(), g.Float64(), g.Float64()}
		with := Hypervolume(append(pts, extra), ref)
		return with >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHypervolumeBoundedByRefBox(t *testing.T) {
	g := tensor.NewRNG(3)
	ref := []float64{1, 1}
	f := func(seed uint8) bool {
		_ = seed
		n := 1 + g.Intn(10)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{g.Float64(), g.Float64()}
		}
		hv := Hypervolume(pts, ref)
		return hv >= 0 && hv <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// contribution is the increase in hypervolume from adding p to points —
// the quantity SMS-EGO maximizes — as the Hypervolume difference the
// optimizer takes.
func contribution(points [][]float64, p, ref []float64) float64 {
	return Hypervolume(append(append([][]float64{}, points...), p), ref) - Hypervolume(points, ref)
}

func TestContribution(t *testing.T) {
	pts := [][]float64{{1, 3}, {3, 1}}
	ref := []float64{4, 4}
	// (2,2) adds the box [2,3]×[2,3] → 1
	c := contribution(pts, []float64{2, 2}, ref)
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("contribution = %g, want 1", c)
	}
	// a dominated point contributes nothing
	if c := contribution(pts, []float64{3.9, 3.9}, ref); math.Abs(c) > 1e-12 {
		t.Fatalf("dominated contribution = %g, want 0", c)
	}
}

func TestContributionDoesNotMutateInput(t *testing.T) {
	pts := [][]float64{{1, 3}, {3, 1}}
	var s Scratch
	s.Hypervolume(append(pts[:len(pts):len(pts)], []float64{2, 2}), []float64{4, 4})
	if len(pts) != 2 || pts[0][0] != 1 || pts[0][1] != 3 || pts[1][0] != 3 || pts[1][1] != 1 {
		t.Fatalf("input changed: %v", pts)
	}
}

// refHypervolume is the recursive, allocating WFG the flat Scratch kernel
// replaced, kept verbatim as its bitwise oracle: clip to the ref box, Filter,
// then sum exclusive volumes in order.
func refHypervolume(points [][]float64, ref []float64) float64 {
	var clipped [][]float64
	for _, p := range points {
		inside := true
		for i := range p {
			if p[i] >= ref[i] {
				inside = false
				break
			}
		}
		if inside {
			clipped = append(clipped, p)
		}
	}
	return refWFG(Filter(clipped), ref)
}

func refWFG(front [][]float64, ref []float64) float64 {
	total := 0.0
	for i, p := range front {
		total += refExclusive(p, front[i+1:], ref)
	}
	return total
}

func refExclusive(p []float64, rest [][]float64, ref []float64) float64 {
	return inclusive(p, ref) - refWFG(Filter(refLimitSet(rest, p)), ref)
}

func refLimitSet(s [][]float64, p []float64) [][]float64 {
	out := make([][]float64, len(s))
	for i, q := range s {
		m := make([]float64, len(q))
		for j := range q {
			if q[j] > p[j] {
				m[j] = q[j]
			} else {
				m[j] = p[j]
			}
		}
		out[i] = m
	}
	return out
}

// randomFront draws n points in d dimensions around the unit box: values on
// a coarse lattice (so ties and exact duplicates are common) mixed with
// continuous ones, some on or beyond the reference point.
func randomFront(g *tensor.RNG, n, d int, ref []float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		if i > 0 && g.Intn(6) == 0 {
			pts[i] = append([]float64(nil), pts[g.Intn(i)]...) // duplicate
			continue
		}
		p := make([]float64, d)
		for j := range p {
			switch g.Intn(8) {
			case 0:
				p[j] = ref[j] // on the ref
			case 1:
				p[j] = ref[j] + g.Float64() // beyond it
			case 2, 3, 4:
				p[j] = float64(g.Intn(5)) / 4 // lattice: ties
			default:
				p[j] = g.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

func TestHypervolumeMatchesRecursiveWFGBitwise(t *testing.T) {
	g := tensor.NewRNG(11)
	var s Scratch // reused across cases, as the optimizer reuses it
	for d := 1; d <= 4; d++ {
		ref := make([]float64, d)
		for j := range ref {
			ref[j] = 1
		}
		for trial := 0; trial < 150; trial++ {
			pts := randomFront(g, g.Intn(13), d, ref)
			want := refHypervolume(pts, ref)
			if got := Hypervolume(pts, ref); got != want {
				t.Fatalf("d=%d trial %d: Hypervolume = %x, reference WFG = %x\n%v", d, trial, got, want, pts)
			}
			if got := s.Hypervolume(pts, ref); got != want {
				t.Fatalf("d=%d trial %d: reused Scratch = %x, reference WFG = %x\n%v", d, trial, got, want, pts)
			}
		}
	}
}

// gridHypervolume counts, by brute force, the unit cells of the integer box
// [0, ref) that some point weakly dominates: the exact hypervolume of an
// integer point set.
func gridHypervolume(points [][]int, ref []int) float64 {
	d := len(ref)
	cell := make([]int, d)
	count := 0
	for {
		for _, p := range points {
			covered := true
			for j := range p {
				if p[j] > cell[j] {
					covered = false
					break
				}
			}
			if covered {
				count++
				break
			}
		}
		j := 0
		for ; j < d; j++ {
			if cell[j]++; cell[j] < ref[j] {
				break
			}
			cell[j] = 0
		}
		if j == d {
			return float64(count)
		}
	}
}

func TestHypervolumeMatchesGridCount(t *testing.T) {
	g := tensor.NewRNG(12)
	for d := 1; d <= 4; d++ {
		side := 6 - d // keep the grid small: side^d cells
		ref := make([]int, d)
		fref := make([]float64, d)
		for j := range ref {
			ref[j] = side
			fref[j] = float64(side)
		}
		for trial := 0; trial < 100; trial++ {
			n := g.Intn(9)
			pts := make([][]int, n)
			fpts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]int, d)
				fpts[i] = make([]float64, d)
				for j := range pts[i] {
					pts[i][j] = g.Intn(side + 2) // some on or beyond the ref
					fpts[i][j] = float64(pts[i][j])
				}
			}
			want := gridHypervolume(pts, ref)
			if got := Hypervolume(fpts, fref); got != want {
				t.Fatalf("d=%d trial %d: Hypervolume = %g, grid count = %g\n%v", d, trial, got, want, pts)
			}
		}
	}
}

func TestScratchHypervolumeAllocationFree(t *testing.T) {
	g := tensor.NewRNG(13)
	ref := []float64{1, 1, 1}
	pts := randomFront(g, 30, 3, ref)
	var s Scratch
	s.Hypervolume(pts, ref) // warm the buffers
	if allocs := testing.AllocsPerRun(20, func() { s.Hypervolume(pts, ref) }); allocs != 0 {
		t.Fatalf("warm Scratch.Hypervolume allocated %v times per call", allocs)
	}
}

func TestFilterEmpty(t *testing.T) {
	if got := Filter(nil); len(got) != 0 {
		t.Fatalf("Filter(nil) = %v", got)
	}
	if hv := Hypervolume(nil, []float64{1, 1}); hv != 0 {
		t.Fatalf("empty hv = %g", hv)
	}
}

// boundCandidate draws the point whose contribution a bound test checks,
// cycling through the shapes the scorer meets: a fresh point (lattice ties,
// on or beyond the ref included), a duplicate of a front point, a point a
// front point dominates, and a point dominating a front point.
func boundCandidate(g *tensor.RNG, front [][]float64, ref []float64, kind int) []float64 {
	d := len(ref)
	if len(front) == 0 || kind%4 == 0 {
		return randomFront(g, 1, d, ref)[0]
	}
	c := append([]float64(nil), front[g.Intn(len(front))]...)
	for j := range c {
		switch kind % 4 {
		case 2:
			c[j] += float64(g.Intn(3)) / 4
		case 3:
			c[j] -= float64(g.Intn(3)) / 4
		}
	}
	return c
}

// TestContributionBoundCoversGridExclusive checks ContributionBound against
// brute force on small integer fronts: it must be at least c's exclusive
// volume, counted cell by cell, and equal to it in one dimension, where the
// box is exact.
func TestContributionBoundCoversGridExclusive(t *testing.T) {
	g := tensor.NewRNG(14)
	box := make([]float64, 4)
	for d := 1; d <= 4; d++ {
		side := 6 - d
		ref := make([]int, d)
		fref := make([]float64, d)
		for j := range ref {
			ref[j], fref[j] = side, float64(side)
		}
		for trial := 0; trial < 200; trial++ {
			n := g.Intn(9)
			pts := make([][]int, n+1)
			fpts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]int, d)
				for j := range pts[i] {
					pts[i][j] = g.Intn(side + 2) // some on or beyond the ref
				}
				if i < n {
					fpts[i] = make([]float64, d)
					for j, v := range pts[i] {
						fpts[i][j] = float64(v)
					}
				}
			}
			c := make([]float64, d)
			for j, v := range pts[n] {
				c[j] = float64(v)
			}
			exclusive := gridHypervolume(pts, ref) - gridHypervolume(pts[:n], ref)
			bound := ContributionBound(fpts, c, fref, box)
			if bound < exclusive || (d == 1 && bound != exclusive) {
				t.Fatalf("d=%d trial %d: bound %g, exclusive volume %g\nfront %v\nc %v", d, trial, bound, exclusive, pts[:n], c)
			}
		}
	}
}

// TestContributionBoundCoversContribution checks ContributionBound against
// the exact hypervolume difference on random 2–4-D fronts with ties,
// duplicates, points on or beyond the ref, and candidates that are
// dominated by or dominate front points. On dyadic coordinates every volume
// is computed exactly, so the bound must cover the difference outright; on
// continuous ones it must hold within BoundTolerance, the slack the SMS-EGO
// scorer prunes with.
func TestContributionBoundCoversContribution(t *testing.T) {
	g := tensor.NewRNG(15)
	box := make([]float64, 4)
	dyadic := func(pts ...[]float64) {
		for _, p := range pts {
			for j := range p {
				p[j] = math.Round(p[j]*64) / 64
			}
		}
	}
	for d := 2; d <= 4; d++ {
		ref := make([]float64, d)
		for j := range ref {
			ref[j] = 1
		}
		for trial := 0; trial < 400; trial++ {
			front := randomFront(g, g.Intn(13), d, ref)
			c := boundCandidate(g, front, ref, trial)
			for _, exactMath := range []bool{false, true} {
				if exactMath {
					dyadic(append(front, c)...)
				}
				base := Hypervolume(front, ref)
				gain := contribution(front, c, ref)
				bound := ContributionBound(front, c, ref, box)
				tol := BoundTolerance(base, bound)
				if exactMath {
					tol = 0
				}
				if !(bound >= gain-tol) {
					t.Fatalf("d=%d trial %d (dyadic %v): bound %x below contribution %x\nfront %v\nc %v", d, trial, exactMath, bound, gain, front, c)
				}
			}
		}
	}
}

func TestContributionBoundNaNAndAllocationFree(t *testing.T) {
	front := [][]float64{{0.2, 0.8}, {0.5, 0.5}, {0.8, 0.2}}
	ref, box := []float64{1, 1}, make([]float64, 2)
	if b := ContributionBound(front, []float64{math.NaN(), 0.1}, ref, box); !math.IsNaN(b) {
		t.Fatalf("NaN candidate: bound %g, want NaN", b)
	}
	c := []float64{0.3, 0.3}
	if allocs := testing.AllocsPerRun(20, func() { ContributionBound(front, c, ref, box) }); allocs != 0 {
		t.Fatalf("ContributionBound allocated %v times per call", allocs)
	}
}
