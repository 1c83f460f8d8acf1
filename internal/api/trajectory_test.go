package api

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/dse"
	"autopilot/internal/pareto"
)

// The values below were captured from the exhaustive SMS-EGO scorer (every
// screened candidate's exact hypervolume contribution, then the argmax),
// before the scorer learned to prune candidates whose contribution bound
// cannot win. They pin the full-size default run end to end: which
// candidate each of the 72 model-guided iterations picked, the Phase-2
// front and its hypervolume.
var (
	goldenTrajectory = []int{
		1813, 544, 319, 1319, 1531, 1309, 1951, 323, 467, 1581, 1737, 772,
		1271, 757, 455, 486, 1549, 358, 1525, 581, 1936, 1646, 636, 1463,
		532, 104, 375, 195, 1698, 300, 1540, 1390, 574, 777, 795, 1740,
		445, 1785, 1597, 620, 776, 1690, 1967, 1329, 121, 1853, 1557, 1364,
		601, 1180, 1779, 107, 314, 1728, 1926, 1987, 1411, 1923, 1300, 660,
		1230, 710, 743, 1877, 479, 988, 2032, 137, 1451, 662, 649, 787,
	}
	goldenFrontSHA = "b2a9a7b34309dc1f26b7695f834134169fdbbace4c7713fde84f6e0565c29eb1"
	goldenFrontHV  = "0x1.6e5600844b3d3p+04"
)

// TestDefaultRequestTrajectory runs DefaultRequest's Phase 2 (surrogate
// Phase-1 database, pool 2048, 72 BO iterations) and checks every BO pick,
// the front checksum and the front hypervolume bitwise, at one worker and at
// four.
func TestDefaultRequestTrajectory(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	req, err := DefaultRequest().Phase2Request(db)
	if err != nil {
		t.Fatal(err)
	}
	cands := req.Space.Sample(req.Config.CandidatePool, req.Config.Seed)
	index := make(map[string]int, len(cands))
	for i, d := range cands {
		index[d.String()] = i
	}
	for _, workers := range []int{1, 4} {
		req.Workers = workers
		res, err := dse.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluated holds the initial batch, then one entry per BO pick,
		// then the probe corners.
		init, iters := req.Config.BO.InitSamples, req.Config.BO.Iterations
		if len(res.Evaluated) < init+iters || len(res.Failures)+len(res.Skips) != 0 {
			t.Fatalf("workers=%d: %d evaluated, %d failures, %d skips", workers, len(res.Evaluated), len(res.Failures), len(res.Skips))
		}
		picks := make([]int, iters)
		for k, e := range res.Evaluated[init : init+iters] {
			picks[k] = index[e.Design.String()]
		}
		sum := sha256.New()
		front := make([][]float64, 0, len(res.ParetoIdx))
		for _, i := range res.ParetoIdx {
			y := res.Evaluated[i].Objectives()
			front = append(front, y)
			for _, v := range y {
				fmt.Fprintf(sum, "%x,", v)
			}
			fmt.Fprintln(sum)
		}
		frontSHA := hex.EncodeToString(sum.Sum(nil))
		frontHV := strconv.FormatFloat(pareto.Hypervolume(front, []float64{0, 30, 1}), 'x', -1, 64)
		if !reflect.DeepEqual(picks, goldenTrajectory) || frontSHA != goldenFrontSHA || frontHV != goldenFrontHV {
			t.Fatalf("workers=%d: trajectory drifted\npicks %#v\nfront sha256 %s\nfront hypervolume %s",
				workers, picks, frontSHA, frontHV)
		}
	}
}
