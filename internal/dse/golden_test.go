package dse

import (
	"strconv"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/systolic"
)

// gx parses an exact hex-float literal captured from the pre-refactor
// evaluation path (PR 2): the golden values below were printed by the
// original dse.Evaluate implementation that called systolic.Simulate and
// power.Model.Accelerator directly, before the hw.Backend seam existed.
func gx(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden literal %q: %v", s, err)
	}
	return v
}

func goldenDesign(layers, filters, rows, cols, ifKB, fKB, ofKB int) DesignPoint {
	return DesignPoint{
		Hyper: policy.Hyper{Layers: layers, Filters: filters},
		HW: systolic.Config{
			Rows: rows, Cols: cols, IfmapKB: ifKB, FilterKB: fKB, OfmapKB: ofKB,
			Dataflow: systolic.OutputStationary, FreqMHz: 500,
			BandwidthGBps: Bandwidth(rows * cols),
		},
	}
}

// goldenEvaluated pins every scored field of five designs spanning the
// Table II space to the exact pre-refactor values. Equality is bitwise
// (==, not a tolerance): the hw.SystolicBackend must reproduce the original
// arithmetic operation for operation.
var goldenEvaluated = []struct {
	design                            func() DesignPoint
	succ, fps, rt, soc, accel         string
	pe, pes, sram, srams, dram, drams string
}{
	{
		design: func() DesignPoint { return goldenDesign(2, 32, 8, 8, 32, 32, 32) },
		succ:   "0x1.199999999999ap-01", fps: "0x1.ae3cdf032d4a7p+04",
		rt: "0x1.30a66fafaa16p-05", soc: "0x1.ef7f8f03907dfp-02", accel: "0x1.722e603cd395ap-02",
		pe: "0x1.aa467fe56d64ap-12", pes: "0x1.92a737110e454p-11", sram: "0x1.f03f7c8fe8d3p-12",
		srams: "0x1.797cc39ffd60fp-07", dram: "0x1.48dc0fc035817p-04", drams: "0x1.127b8115206d9p-02",
	},
	{
		design: func() DesignPoint { return goldenDesign(7, 48, 64, 64, 256, 256, 256) },
		succ:   "0x1.8f5c28f5c28f6p-01", fps: "0x1.59748cbcc019dp+04",
		rt: "0x1.7b6b0bcdcfbd5p-05", soc: "0x1.4835ccefcdf92p-01", accel: "0x1.098d358c6f84fp-01",
		pe: "0x1.dc30243a6c9adp-11", pes: "0x1.92a737110e454p-05", sram: "0x1.ca7d0fba2911dp-11",
		srams: "0x1.797cc39ffd60fp-04", dram: "0x1.932d55e996678p-04", drams: "0x1.1bc7a73a5e044p-02",
	},
	{
		design: func() DesignPoint { return goldenDesign(10, 64, 1024, 1024, 4096, 4096, 4096) },
		succ:   "0x1.199999999999ap-01", fps: "0x1.85485761c22c2p+07",
		rt: "0x1.50b3907f835cbp-08", soc: "0x1.3b4fd7cf2ddc6p+04", accel: "0x1.395a931412e8cp+04",
		pe: "0x1.0fee9fd8ed0c5p-06", pes: "0x1.92a737110e454p+03", sram: "0x1.f2dc09d014ae9p-06",
		srams: "0x1.797cc39ffd60fp+00", dram: "0x1.32b66388a225bp+00", drams: "0x1.120c49ba5e354p+02",
	},
	{
		design: func() DesignPoint { return goldenDesign(5, 32, 128, 32, 512, 128, 64) },
		succ:   "0x1.199999999999ap-01", fps: "0x1.03cebd236466cp+05",
		rt: "0x1.f87f17b82d837p-06", soc: "0x1.4429bfaf89cb2p-01", accel: "0x1.0581284c2b56fp-01",
		pe: "0x1.5474c22884e78p-11", pes: "0x1.92a737110e454p-05", sram: "0x1.dcaba914a8e97p-11",
		srams: "0x1.5a07b352a8438p-04", dram: "0x1.932d15c638e4cp-04", drams: "0x1.1bc7a73a5e044p-02",
	},
	{
		design: func() DesignPoint { return goldenDesign(4, 48, 16, 256, 64, 1024, 128) },
		succ:   "0x1.199999999999ap-01", fps: "0x1.5ed18dc2d916ap+04",
		rt: "0x1.759e1c8b260e6p-05", soc: "0x1.63b31dc52c2b1p-01", accel: "0x1.250a8661cdb6ep-01",
		pe: "0x1.656f13fe7f6a9p-11", pes: "0x1.92a737110e454p-05", sram: "0x1.0e8d497e2439p-10",
		srams: "0x1.2ad81adea8976p-03", dram: "0x1.932cb19127c52p-04", drams: "0x1.1bc7a73a5e044p-02",
	},
}

// TestGoldenEvaluated pins dse.Evaluated fields across the hw-layer
// refactor: any drift in FPS, runtime, SoC power, or the per-component
// power breakdown against the pre-refactor evaluation path fails the test.
func TestGoldenEvaluated(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	space := DefaultSpace()
	ev := Request{Space: space, DB: db, Scenario: airlearning.DenseObstacle, Power: power.Default()}.NewEvaluator()
	for _, g := range goldenEvaluated {
		d := g.design()
		e, err := evalOne(ev, d)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		check := func(name string, got float64, want string) {
			if got != gx(t, want) {
				t.Errorf("%v: %s = %v (%x), want %s", d, name, got, got, want)
			}
		}
		check("SuccessRate", e.SuccessRate, g.succ)
		check("FPS", e.FPS, g.fps)
		check("RuntimeSec", e.RuntimeSec, g.rt)
		check("SoCPowerW", e.SoCPowerW, g.soc)
		check("AccelPowerW", e.AccelPowerW, g.accel)
		check("Breakdown.PEDynamic", e.Breakdown.PEDynamic, g.pe)
		check("Breakdown.PEStatic", e.Breakdown.PEStatic, g.pes)
		check("Breakdown.SRAMDynamic", e.Breakdown.SRAMDynamic, g.sram)
		check("Breakdown.SRAMStatic", e.Breakdown.SRAMStatic, g.srams)
		check("Breakdown.DRAMDynamic", e.Breakdown.DRAMDynamic, g.dram)
		check("Breakdown.DRAMStatic", e.Breakdown.DRAMStatic, g.drams)
	}
}

// TestGoldenSoCPowerHelper pins the satellite dedup: the evaluator's SoC
// power must equal power.SoCTotal of its breakdown, which must equal the
// power.Model.SoC path — one helper, no drift.
func TestGoldenSoCPowerHelper(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	space := DefaultSpace()
	ev := Request{Space: space, DB: db, Scenario: airlearning.DenseObstacle, Power: power.Default()}.NewEvaluator()
	d := goldenDesign(7, 48, 64, 64, 256, 256, 256)
	e, err := evalOne(ev, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := power.SoCTotal(e.Breakdown); got != e.SoCPowerW {
		t.Fatalf("SoCTotal(breakdown) = %v, evaluator said %v", got, e.SoCPowerW)
	}
	net, err := policy.Build(d.Hyper, space.Template)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := systolic.Simulate(net, d.HW)
	if err != nil {
		t.Fatal(err)
	}
	if got := power.Default().SoC(rep); got != e.SoCPowerW {
		t.Fatalf("power.Model.SoC = %v, evaluator said %v", got, e.SoCPowerW)
	}
}
