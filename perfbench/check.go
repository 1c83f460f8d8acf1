package main

import (
	"encoding/json"
	"fmt"

	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/pareto"
)

// hvRef is the hypervolume reference point dse.Execute uses for SoC-only
// spaces; every workload here searches the legacy space.
var hvRef = []float64{0, 30, 1}

// quality is what the output checks read off one job's result.
type quality struct {
	hypervolume float64 // of the Phase-2 front, at hvRef
	missions    float64 // missions per charge of the selected (AP) design
}

// checkResult verifies the invariants every co-design result must satisfy:
// a non-empty, mutually non-dominated Phase-2 front with positive
// hypervolume, and a selected design the UAV can lift for a positive number
// of missions.
func checkResult(res api.Result) (quality, error) {
	if len(res.Pareto) == 0 {
		return quality{}, fmt.Errorf("empty Pareto front")
	}
	objs := make([][]float64, len(res.Pareto))
	for i, p := range res.Pareto {
		objs[i] = []float64{-p.SuccessRate, p.SoCPowerW, p.RuntimeSec}
	}
	for i := range objs {
		for j := range objs {
			if i != j && pareto.Dominates(objs[i], objs[j]) {
				return quality{}, fmt.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
	q := quality{hypervolume: pareto.Hypervolume(objs, hvRef), missions: res.Report.Selected.Missions}
	if !(q.hypervolume > 0) {
		return quality{}, fmt.Errorf("front hypervolume %g is not positive", q.hypervolume)
	}
	if !res.Report.Selected.Liftable || !(q.missions > 0) {
		return quality{}, fmt.Errorf("selected design %s: liftable=%v missions=%g",
			res.Report.Selected.Hardware, res.Report.Selected.Liftable, q.missions)
	}
	return q, nil
}

// serverResult builds the api.Result autopilotd returns for req from a
// direct pipeline report: the same manifest sections server.execute fills,
// and nothing time-dependent. It is the reference the service results are
// compared against, byte for byte.
func serverResult(req api.CoDesignRequest, rep *core.Report) api.Result {
	man := obs.Manifest{
		Tool:   "autopilotd",
		Status: "ok",
		Config: req.ManifestConfig(),
		Seeds:  req.ManifestSeeds(),
	}
	if rep.Phase1 != nil {
		man.Failures = append(man.Failures, fault.Records(rep.Phase1.Failures)...)
		if rep.Phase1.CheckpointQuarantined != "" {
			man.Events = append(man.Events, obs.RunEvent{Kind: "checkpoint-quarantined", Detail: rep.Phase1.CheckpointQuarantined})
		}
	}
	man.Failures = append(man.Failures, fault.Records(rep.Phase2.Failures)...)
	return api.NewResult(req, rep, man)
}

// canonical returns v as JSON with object keys sorted at every level, so two
// results compare byte for byte whatever struct order or indentation
// produced them.
func canonical(v any) ([]byte, error) {
	raw, ok := v.(json.RawMessage)
	if !ok {
		var err error
		if raw, err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	var generic any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}
