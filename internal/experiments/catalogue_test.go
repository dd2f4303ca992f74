package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"dscs/internal/model"
	"dscs/internal/workload"
)

// freshBuilds are the suite's constructors, each building a private
// benchmark, in Table 1 order.
var freshBuilds = []func() *workload.Benchmark{
	workload.CreditRisk, workload.AssetDamage, workload.PPEDetection, workload.Chatbot,
	workload.Translation, workload.Clinical, workload.Moderation, workload.RemoteSensing,
}

// TestExperimentsLeaveCatalogueIntact runs every experiment on one
// environment, at GOMAXPROCS 4 so fan-out replays read the shared graphs at
// once, and then checks that each catalogue benchmark still equals a fresh
// constructor build: metadata, payload sizes, and both graphs' names, layer
// counts, layers and FLOPs. Every environment, runner and workflow of the
// process reads these objects, so an experiment that edited one would move
// every later experiment's output. Run it under -race as well.
func TestExperimentsLeaveCatalogueIntact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env, err := NewEnvironment(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range All() {
		if _, err := spec.Run(env); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
	}
	suite := workload.Suite()
	if len(suite) != len(freshBuilds) {
		t.Fatalf("catalogue has %d benchmarks, %d constructors", len(suite), len(freshBuilds))
	}
	for i, got := range suite {
		want := freshBuilds[i]()
		if got != env.Suite[i] {
			t.Errorf("%s: the environment holds a different object than the catalogue", want.Slug)
		}
		if got.Name != want.Name || got.Slug != want.Slug || got.Description != want.Description {
			t.Errorf("%s: metadata %q/%q changed from %q/%q", want.Slug, got.Name, got.Slug, want.Name, want.Slug)
		}
		if got.InputBytes != want.InputBytes || got.IntermediateBytes != want.IntermediateBytes ||
			got.OutputBytes != want.OutputBytes || got.NotifyBytes != want.NotifyBytes {
			t.Errorf("%s: payload sizes changed", want.Slug)
		}
		for _, g := range []struct {
			name      string
			got, want *model.Graph
		}{{"preproc", got.Preproc, want.Preproc}, {"model", got.Model, want.Model}} {
			if g.got.Name != g.want.Name || len(g.got.Layers) != len(g.want.Layers) || g.got.FLOPs() != g.want.FLOPs() {
				t.Errorf("%s %s: %q, %d layers, %d FLOPs; a fresh build has %q, %d layers, %d FLOPs",
					want.Slug, g.name, g.got.Name, len(g.got.Layers), g.got.FLOPs(),
					g.want.Name, len(g.want.Layers), g.want.FLOPs())
				continue
			}
			if !reflect.DeepEqual(g.got.Layers, g.want.Layers) || !reflect.DeepEqual(g.got.InputShape, g.want.InputShape) {
				t.Errorf("%s %s: a layer or the input shape was edited in place", want.Slug, g.name)
			}
		}
	}
}
