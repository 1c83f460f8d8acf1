// Package pareto provides multi-objective dominance utilities and exact
// hypervolume computation — the WFG algorithm over reusable flat buffers —
// which the SMS-EGO acquisition function in the Bayesian optimizer
// maximizes. All objectives are minimized; callers negate objectives they
// want to maximize (e.g. task success rate).
package pareto

import "fmt"

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

// inclusive returns the box volume between p and ref.
func inclusive(p []float64, ref []float64) float64 {
	v := 1.0
	for i := range p {
		v *= ref[i] - p[i]
	}
	return v
}
