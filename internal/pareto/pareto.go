// Package pareto provides multi-objective dominance utilities and exact
// hypervolume computation — the WFG algorithm over reusable flat buffers —
// which the SMS-EGO acquisition function in the Bayesian optimizer
// maximizes. All objectives are minimized; callers negate objectives they
// want to maximize (e.g. task success rate).
package pareto

import (
	"fmt"
	"math"
)

// Dominates reports whether a Pareto-dominates b under minimization:
// a is no worse in every objective and strictly better in at least one.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	return dominates(a, b)
}

// dominates is Dominates for vectors of equal length.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports whether a is no worse than b in every objective.
func WeaklyDominates(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// NonDominated returns the indices of the non-dominated points, preserving
// input order. Duplicate points are all kept.
func NonDominated(points [][]float64) []int {
	var keep []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	return keep
}

// Filter returns the non-dominated subset of points.
func Filter(points [][]float64) [][]float64 {
	idx := NonDominated(points)
	out := make([][]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, points[i])
	}
	return out
}

// Hypervolume returns the volume of objective space dominated by the point
// set and bounded by the reference point (which must be weakly worse than
// every point in every objective). Points outside the reference box
// contribute only their clipped part; fully dominated points contribute
// nothing extra. Each call allocates fresh working memory; hot loops reuse a
// Scratch instead.
func Hypervolume(points [][]float64, ref []float64) float64 {
	var s Scratch
	return s.Hypervolume(points, ref)
}

// Scratch is reusable working memory for the WFG hypervolume recursion: one
// flat point buffer per recursion depth plus the filter's keep flags. Once
// its buffers have grown to the largest front seen, Scratch.Hypervolume
// does not allocate. The zero value is ready to use; a Scratch must not be
// used by two goroutines at once.
type Scratch struct {
	levels [][]float64 // levels[k]: the point set at depth k, d floats per point
	keep   []bool
}

// Hypervolume is the package-level Hypervolume computed in s's buffers. The
// result is bitwise identical: points are clipped to the reference box,
// filtered to the non-dominated set (duplicates kept, input order
// preserved) and summed by WFG in the same order.
func (s *Scratch) Hypervolume(points [][]float64, ref []float64) float64 {
	d := len(ref)
	set := s.level(0, len(points)*d)
	n := 0
	for _, p := range points {
		if len(p) != d {
			panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(p), d))
		}
		inside := true
		for i := range p {
			if p[i] >= ref[i] {
				inside = false
				break
			}
		}
		if inside {
			copy(set[n*d:], p)
			n++
		}
	}
	return s.wfg(0, s.filter(set, n, d), ref)
}

// level returns depth k's buffer resized to size floats.
func (s *Scratch) level(k, size int) []float64 {
	for len(s.levels) <= k {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[k]) < size {
		s.levels[k] = make([]float64, size)
	}
	return s.levels[k][:size]
}

// filter compacts the n points of set to its non-dominated subset, in
// order, keeping duplicates (the flat form of Filter), and returns the new
// count.
func (s *Scratch) filter(set []float64, n, d int) int {
	if cap(s.keep) < n {
		s.keep = make([]bool, n)
	}
	keep := s.keep[:n]
	for i := range keep {
		keep[i] = true
		p := set[i*d : i*d+d]
		for j := 0; j < n; j++ {
			if j != i && dominates(set[j*d:j*d+d], p) {
				keep[i] = false
				break
			}
		}
	}
	m := 0
	for i, k := range keep {
		if k {
			copy(set[m*d:m*d+d], set[i*d:i*d+d])
			m++
		}
	}
	return m
}

// wfg is the WFG exact hypervolume recursion over the n points at depth k:
// the sum, in order, of each point's exclusive volume — its box minus the
// hypervolume of the later points limited to that box and filtered.
func (s *Scratch) wfg(k, n int, ref []float64) float64 {
	d := len(ref)
	set := s.levels[k]
	total := 0.0
	for i := 0; i < n; i++ {
		p := set[i*d : i*d+d]
		rest := set[(i+1)*d : n*d]
		limited := s.level(k+1, len(rest))
		for q := 0; q < len(rest); q += d {
			for j, pj := range p {
				if v := rest[q+j]; v > pj {
					limited[q+j] = v
				} else {
					limited[q+j] = pj
				}
			}
		}
		m := s.filter(limited, len(rest)/d, d)
		total += inclusive(p, ref) - s.wfg(k+1, m, ref)
	}
	return total
}

// BoundTolerance is the slack a caller comparing ContributionBound with
// exact contributions must allow for rounding: 1e-9 of the front's
// hypervolume base plus the bound. Both the bound and a difference of two
// hypervolumes stay far inside it, so a candidate whose bound falls below a
// known exact contribution by more than this cannot reach that contribution.
func BoundTolerance(base, bound float64) float64 {
	return 1e-9 * (math.Abs(base) + bound)
}

// ContributionBound returns a cheap upper bound on the hypervolume c adds to
// front, Hypervolume(front ∪ {c}, ref) − Hypervolume(front, ref), in
// O(len(front)·d) and without allocating; box is caller-owned scratch of at
// least len(ref) floats. It is exact-arithmetic sound: the floating-point
// bound and the floating-point difference of hypervolumes each carry a
// rounding error far below BoundTolerance.
//
// c's exclusive region lies inside the box [c, b], where b starts at ref
// and b_j is tightened to f_j for every front point f no worse than c in
// all objectives but j (all of [c, ref] beyond f_j in objective j is
// dominated by f). The bound is vol([c, b]) minus the largest single
// sub-box [max(f, c), b] some front point dominates. It is 0 when the box
// has a non-positive side or a front point weakly dominates c (that point's
// sub-box is the whole box), and NaN when
// c has a NaN coordinate, so a caller pruning by the bound never drops such
// a candidate unseen.
func ContributionBound(front [][]float64, c, ref, box []float64) float64 {
	for _, ci := range c {
		if math.IsNaN(ci) {
			return ci
		}
	}
	b := box[:len(ref)]
	copy(b, ref)
	for _, f := range front {
		worse, j := 0, 0
		for i, fi := range f {
			if fi > c[i] {
				worse, j = worse+1, i
			}
		}
		if worse == 1 && f[j] < b[j] {
			b[j] = f[j]
		}
	}
	vol := 1.0
	for i, bi := range b {
		if !(bi > c[i]) {
			return 0
		}
		vol *= bi - c[i]
	}
	sub := 0.0
	for _, f := range front {
		v := 1.0
		for i, bi := range b {
			lo := max(f[i], c[i])
			if !(bi > lo) {
				v = 0
				break
			}
			v *= bi - lo
		}
		sub = max(sub, v)
	}
	return vol - sub
}

// inclusive returns the box volume between p and ref.
func inclusive(p []float64, ref []float64) float64 {
	v := 1.0
	for i := range p {
		v *= ref[i] - p[i]
	}
	return v
}
