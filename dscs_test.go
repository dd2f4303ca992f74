package dscs_test

import (
	"strings"
	"testing"
	"time"

	"dscs"
)

// TestPublicAPIQuickstart exercises the documented entry points end to end:
// build an environment, invoke the headline benchmark on the baseline and
// on DSCS, and check the paper's qualitative claim.
func TestPublicAPIQuickstart(t *testing.T) {
	env, err := dscs.NewEnvironment(7)
	if err != nil {
		t.Fatal(err)
	}
	b := dscs.BenchmarkBySlug("remote-sensing")
	if b == nil {
		t.Fatal("missing benchmark")
	}
	base, err := env.Baseline().Invoke(b, dscs.InvokeOptions{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := env.DSCS().Invoke(b, dscs.InvokeOptions{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if accel.Total() >= base.Total() {
		t.Fatalf("DSCS (%v) must beat the baseline (%v)", accel.Total(), base.Total())
	}
	if accel.Energy >= base.Energy {
		t.Fatal("DSCS must also win on energy")
	}
}

func TestPublicToolchain(t *testing.T) {
	cfg := dscs.PaperDSA()
	for _, m := range dscs.Models() {
		prog, err := dscs.Compile(m, 1, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		st, err := dscs.Simulate(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if st.Cycles == 0 {
			t.Errorf("%s: no cycles simulated", m.Name)
		}
		if lat := st.Latency(cfg.Freq); lat <= 0 || lat > time.Second {
			t.Errorf("%s: implausible latency %v", m.Name, lat)
		}
		e, p := dscs.DSAEnergy(st, cfg)
		if e <= 0 || p <= 0 {
			t.Errorf("%s: degenerate energy estimate", m.Name)
		}
	}
}

// TestModelsAreTheSuiteModels pins Models to the catalogue: the model of
// each Suite benchmark, the same shared graph, in Table 1 order.
func TestModelsAreTheSuiteModels(t *testing.T) {
	want := []string{"logistic-regression", "resnet-50", "ssd-mobilenet-ppe", "bert-base",
		"marian-translation", "inception-v3", "resnet-18", "vit-b16"}
	models, suite := dscs.Models(), dscs.Suite()
	if len(models) != len(suite) || len(models) != len(want) {
		t.Fatalf("%d models for %d benchmarks, want %d", len(models), len(suite), len(want))
	}
	for i, m := range models {
		if m != suite[i].Model {
			t.Errorf("model %d (%s) is not %s's shared graph", i, m.Name, suite[i].Slug)
		}
		if m.Name != want[i] {
			t.Errorf("model %d is %q, want %s", i, m.Name, want[i])
		}
	}
}

// TestSchedulingPolicies pins the public policy list: the paper's
// deployed FCFS and the criticality-aware refinement, in that order.
func TestSchedulingPolicies(t *testing.T) {
	if got := strings.Join(dscs.SchedulingPolicies(), " "); got != "fcfs criticality" {
		t.Errorf("SchedulingPolicies() = [%s], want [fcfs criticality]", got)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(dscs.Experiments()) != 21 {
		t.Fatalf("registry size %d, want 21", len(dscs.Experiments()))
	}
	env, err := dscs.NewEnvironment(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dscs.RunExperiment("table2", env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "DSCS-Serverless") {
		t.Error("table2 output missing the proposed platform")
	}
	if _, err := dscs.RunExperiment("fig99", env); err == nil {
		t.Error("unknown experiment id must error")
	}
}

func TestDeploymentYAMLParses(t *testing.T) {
	for _, b := range dscs.Suite() {
		y := dscs.DeploymentYAML(b)
		if !strings.Contains(y, "accelerated: true") {
			t.Errorf("%s: YAML missing acceleration hints", b.Slug)
		}
	}
}

func TestDesignSpaceAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full DSE in -short mode")
	}
	points, err := dscs.ExploreDesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 650 {
		t.Fatalf("explored %d points, want >650", len(points))
	}
	if len(dscs.ParetoPower(points)) == 0 || len(dscs.ParetoArea(points)) == 0 {
		t.Fatal("empty frontiers")
	}
	best, ok := dscs.OptimalDesign(points)
	if !ok || best.Config.Rows != 128 {
		t.Fatalf("optimal = %+v, want a 128x128 array", best.Config)
	}
}
