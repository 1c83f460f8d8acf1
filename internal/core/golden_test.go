package core

import (
	"context"
	"strconv"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/dse"
	"autopilot/internal/f1"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/systolic"
	"autopilot/internal/uav"
)

// The hex-float golden values in this file were captured from the
// pre-refactor Phase-3 code path (direct systolic/power calls inside core),
// before hw.Backend existed. Comparisons are bitwise (==): the refactor must
// not perturb a single floating-point operation.

func gx(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden literal %q: %v", s, err)
	}
	return v
}

func goldenHW(rows, cols, ifKB, fKB, ofKB int) systolic.Config {
	return systolic.Config{
		Rows: rows, Cols: cols, IfmapKB: ifKB, FilterKB: fKB, OfmapKB: ofKB,
		Dataflow: systolic.OutputStationary, FreqMHz: 500,
		BandwidthGBps: dse.Bandwidth(rows * cols),
	}
}

// TestGoldenEvaluateOnPlatform pins the nano-UAV/dense mission metrics for
// five fixed design points across the hw-layer refactor.
func TestGoldenEvaluateOnPlatform(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	space := dse.DefaultSpace()
	ev := dse.Request{Space: space, DB: db, Scenario: airlearning.DenseObstacle, Power: power.Default()}.NewEvaluator()
	spec := DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	model := f1.ForScenario(spec.Scenario)

	cases := []struct {
		d                                        dse.DesignPoint
		payload, actionHz, knee, vsafe, missions string
	}{
		{
			d:       dse.DesignPoint{Hyper: policy.Hyper{Layers: 2, Filters: 32}, HW: goldenHW(8, 8, 32, 32, 32)},
			payload: "0x1.5f9fdca43c84p+04", actionHz: "0x1.ae3cdf032d4a7p+04",
			knee: "0x1.76c2779dc0886p+05", vsafe: "0x1.d725faad0ebbfp+02", missions: "0x1.3bfae75a1aa3fp+02",
		},
		{
			d:       dse.DesignPoint{Hyper: policy.Hyper{Layers: 7, Filters: 48}, HW: goldenHW(64, 64, 256, 256, 256)},
			payload: "0x1.6d5f3a16dad07p+04", actionHz: "0x1.59748cbcc019dp+04",
			knee: "0x1.735e20790fd32p+05", vsafe: "0x1.8d38c4ccb8326p+02", missions: "0x1.01fb0257d7befp+02",
		},
		{
			d:       dse.DesignPoint{Hyper: policy.Hyper{Layers: 10, Filters: 64}, HW: goldenHW(1024, 1024, 4096, 4096, 4096)},
			payload: "0x1.fc50c39909d8cp+06", actionHz: "0x1.ep+05",
			knee: "0x1.1c39a62acc6e6p+04", vsafe: "0x1.67ca6a29d6ff2p+02", missions: "0x1.57f65e3b1aec9p-01",
		},
		{
			d:       dse.DesignPoint{Hyper: policy.Hyper{Layers: 5, Filters: 32}, HW: goldenHW(128, 32, 512, 128, 64)},
			payload: "0x1.6cae352f6a0b8p+04", actionHz: "0x1.03cebd236466cp+05",
			knee: "0x1.738979cddbf98p+05", vsafe: "0x1.128a6ddefe25p+03", missions: "0x1.652d2230eb293p+02",
		},
		{
			d:       dse.DesignPoint{Hyper: policy.Hyper{Layers: 4, Filters: 48}, HW: goldenHW(16, 256, 64, 1024, 128)},
			payload: "0x1.72119e47ca688p+04", actionHz: "0x1.5ed18dc2d916ap+04",
			knee: "0x1.7238966537672p+05", vsafe: "0x1.91e5f7b7aee31p+02", missions: "0x1.023940ac1934p+02",
		},
	}
	for _, c := range cases {
		es, errs := make([]dse.Evaluated, 1), make([]error, 1)
		if err := ev.Evaluate(context.Background(), []dse.DesignPoint{c.d}, 0, es, errs); err != nil {
			t.Fatal(err)
		}
		e, err := es[0], errs[0]
		if err != nil {
			t.Fatalf("%v: %v", c.d, err)
		}
		sel := EvaluateOnPlatform(spec, e, model)
		if !sel.Liftable {
			t.Errorf("%v: not liftable", c.d)
		}
		check := func(name string, got float64, want string) {
			if got != gx(t, want) {
				t.Errorf("%v: %s = %x, want %s", c.d, name, got, want)
			}
		}
		check("PayloadG", sel.PayloadG, c.payload)
		check("ActionHz", sel.ActionHz, c.actionHz)
		check("KneeHz", sel.KneeHz, c.knee)
		check("VSafeMS", sel.VSafeMS, c.vsafe)
		check("Missions", sel.Missions(), c.missions)
	}
}

// TestGoldenEvaluateBaseline pins the off-the-shelf board evaluation (now
// routed through hw.BoardBackend) for all four baselines on two
// platform/scenario pairs.
func TestGoldenEvaluateBaseline(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	boards := uav.AllBaselines()
	if len(boards) != 4 {
		t.Fatalf("AllBaselines() = %d boards, want 4", len(boards))
	}

	type bg struct{ fps, soc, payload, actionHz, vsafe, missions string }
	cases := []struct {
		spec   Spec
		golden []bg
	}{
		{
			spec: DefaultSpec(uav.AscTecPelican(), airlearning.MediumObstacle),
			golden: []bg{
				{"0x1.109f78191fe6p+06", "0x1.83ea897635e74p+03", "0x1.72p+07", "0x1.ep+05", "0x1.88976e1146bcp+02", "0x1.a8f85f2912f4cp+02"},
				{"0x1.98ef3425afd9p+06", "0x1.e3ea897635e74p+03", "0x1.2cp+07", "0x1.ep+05", "0x1.90e83b92170cep+02", "0x1.b8031ab0b18dp+02"},
				{"0x1.8p+02", "0x1.7db4cc2507208p-03", "0x1.4p+02", "0x1.8p+02", "0x1.75fff738ab052p+01", "0x1.f19c384beeadfp+01"},
				{"0x1.4725c351597a6p+03", "0x1.52877ee4e26d4p+00", "0x1.ep+04", "0x1.4725c351597a6p+03", "0x1.f61bbcda90be4p+01", "0x1.44c398a95750cp+02"},
			},
		},
		{
			spec: DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle),
			golden: []bg{
				{"0x1.103cbef76d381p+06", "0x1.83ea897635e74p+03", "0x1.72p+07", "0x1.ep+05", "0x1.c1ed75ae3e667p+01", "0x1.652a1a582b3cfp-02"},
				{"0x1.985b1e7323d41p+06", "0x1.e3ea897635e74p+03", "0x1.2cp+07", "0x1.ep+05", "0x1.30f5802a2555dp+02", "0x1.168a54abdf369p-01"},
				{"0x1.8p+02", "0x1.7db4cc2507208p-03", "0x1.4p+02", "0x1.8p+02", "0x1.676a5ffd5a9b2p+01", "0x1.6da8f111ab28fp+01"},
				{"0x1.46af4b8f4fdcep+03", "0x1.52877ee4e26d4p+00", "0x1.ep+04", "0x1.46af4b8f4fdcep+03", "0x1.dcdacc7d831f7p+01", "0x1.00d1eeb6dcf32p+01"},
			},
		},
	}
	for _, c := range cases {
		for i, b := range boards {
			sel := EvaluateBaseline(c.spec, db, b)
			g := c.golden[i]
			if !sel.Liftable {
				t.Errorf("%s/%s: not liftable", c.spec.Platform.Name, b.Name)
			}
			check := func(name string, got float64, want string) {
				if got != gx(t, want) {
					t.Errorf("%s/%s: %s = %x, want %s", c.spec.Platform.Name, b.Name, name, got, want)
				}
			}
			check("FPS", sel.Design.FPS, g.fps)
			check("SoCPowerW", sel.Design.SoCPowerW, g.soc)
			check("PayloadG", sel.PayloadG, g.payload)
			check("ActionHz", sel.ActionHz, g.actionHz)
			check("VSafeMS", sel.VSafeMS, g.vsafe)
			check("Missions", sel.Missions(), g.missions)
		}
	}
}

func goldenPipelineSpec(workers int) Spec {
	spec := DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	spec.Phase2.CandidatePool = 192
	spec.Phase2.BO.InitSamples = 10
	spec.Phase2.BO.Iterations = 14
	spec.Phase2.BO.ScreenSize = 96
	spec.Workers = workers
	return spec
}

// TestGoldenPipeline pins a small end-to-end run: the Phase-2 front, the
// Phase-3 knee-point selection, the process-node fine-tune, and the HT/LP/HE
// corner picks, all against pre-refactor values.
func TestGoldenPipeline(t *testing.T) {
	rep, err := Run(context.Background(), goldenPipelineSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Phase2.Evaluated), 48; got != want {
		t.Errorf("evaluated = %d, want %d", got, want)
	}
	if got, want := len(rep.Phase2.ParetoIdx), 13; got != want {
		t.Errorf("front size = %d, want %d", got, want)
	}
	if rep.Phase2.HT != 42 || rep.Phase2.LP != 24 || rep.Phase2.HE != 39 {
		t.Errorf("corner indices = %d/%d/%d, want 42/24/39", rep.Phase2.HT, rep.Phase2.LP, rep.Phase2.HE)
	}
	if got, want := rep.Selected.Design.Design.String(), "L7F48 on 256x256/os if32K f32K of32K @250MHz 3.75GB/s"; got != want {
		t.Errorf("selected = %q, want %q", got, want)
	}
	if got, want := rep.Selected.Tuned, "7nm 0.5x clock"; got != want {
		t.Errorf("tuned = %q, want %q", got, want)
	}
	if got, want := rep.Selected.NodeNM, 7; got != want {
		t.Errorf("node = %d, want %d", got, want)
	}
	check := func(name string, got float64, want string) {
		if got != gx(t, want) {
			t.Errorf("%s = %x, want %s", name, got, want)
		}
	}
	check("selected missions", rep.Selected.Missions(), "0x1.8fa09b1d30144p+02")
	check("selected v_safe", rep.Selected.VSafeMS, "0x1.696ba136f1fb4p+03")
	check("selected action Hz", rep.Selected.ActionHz, "0x1.ep+05")
	check("HT missions", rep.HT.Missions(), "0x1.f9dc753c72d6cp+00")
	check("LP missions", rep.LP.Missions(), "0x1.c9efd92916d1ep+01")
	check("HE missions", rep.HE.Missions(), "0x1.6b8073c23b719p+02")
	check("front checksum", frontChecksum(rep), "0x1.d58415c3f6b1fp+04")
}

// TestGoldenPipelineWorkerInvariance proves the Phase-2 front and Phase-3
// selection are bitwise identical whether the evaluator fans out over one
// worker or eight — determinism survives both the refactor and parallelism.
func TestGoldenPipelineWorkerInvariance(t *testing.T) {
	rep1, err := Run(context.Background(), goldenPipelineSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	rep8, err := Run(context.Background(), goldenPipelineSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := len(rep1.Phase2.Evaluated), len(rep8.Phase2.Evaluated); a != b {
		t.Fatalf("evaluated count differs: workers=1 %d, workers=8 %d", a, b)
	}
	for i := range rep1.Phase2.Evaluated {
		if rep1.Phase2.Evaluated[i] != rep8.Phase2.Evaluated[i] {
			t.Errorf("evaluated[%d] differs across worker counts:\n  w1: %+v\n  w8: %+v",
				i, rep1.Phase2.Evaluated[i], rep8.Phase2.Evaluated[i])
		}
	}
	if a, b := frontChecksum(rep1), frontChecksum(rep8); a != b {
		t.Errorf("front checksum differs: workers=1 %x, workers=8 %x", a, b)
	}
	if a, b := rep1.Selected.Design.Design.String(), rep8.Selected.Design.Design.String(); a != b {
		t.Errorf("selected design differs: workers=1 %q, workers=8 %q", a, b)
	}
	if a, b := rep1.Selected.Missions(), rep8.Selected.Missions(); a != b {
		t.Errorf("selected missions differ: workers=1 %x, workers=8 %x", a, b)
	}
}

func frontChecksum(rep *Report) float64 {
	var sum float64
	for _, i := range rep.Phase2.ParetoIdx {
		e := rep.Phase2.Evaluated[i]
		sum += e.SoCPowerW + e.RuntimeSec + e.SuccessRate
	}
	return sum
}
