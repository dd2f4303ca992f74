package workload

import (
	"sync"
	"testing"

	"dscs/internal/units"
)

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d benchmarks, want 8 (Table 1)", len(suite))
	}
	seen := map[string]bool{}
	for _, b := range suite {
		if b.Name == "" || b.Slug == "" || b.Description == "" {
			t.Errorf("%q: incomplete metadata", b.Slug)
		}
		if seen[b.Slug] {
			t.Errorf("duplicate slug %q", b.Slug)
		}
		seen[b.Slug] = true
		if b.Model == nil || b.Preproc == nil {
			t.Fatalf("%q: missing graphs", b.Slug)
		}
		if err := b.Model.Validate(); err != nil {
			t.Errorf("%q model: %v", b.Slug, err)
		}
		if err := b.Preproc.Validate(); err != nil {
			t.Errorf("%q preproc: %v", b.Slug, err)
		}
		if b.InputBytes <= 0 || b.IntermediateBytes <= 0 || b.OutputBytes <= 0 {
			t.Errorf("%q: non-positive payload sizes", b.Slug)
		}
	}
}

// TestBySlug pins the slug table against the constructors and the
// catalogue: each table slug is the one its constructor assigns, and BySlug
// returns the very object Suite lists under it.
func TestBySlug(t *testing.T) {
	suite := Suite()
	if len(suite) != len(constructors) {
		t.Fatalf("suite has %d entries, table %d", len(suite), len(constructors))
	}
	for i, want := range suite {
		if built := constructors[i].build(); constructors[i].slug != built.Slug || built.Slug != want.Slug {
			t.Errorf("table slug %q builds benchmark %q, catalogue holds %q", constructors[i].slug, built.Slug, want.Slug)
		}
		if got := BySlug(want.Slug); got != want {
			t.Errorf("BySlug(%q) = %p, not the Suite entry %p", want.Slug, got, want)
		}
	}
	if BySlug("nope") != nil {
		t.Error("unknown slug should return nil")
	}
}

// TestCatalogueFirstUseConcurrent empties the catalogue and rebuilds it
// under concurrent first calls: every caller must see one object per slug
// (run it under -race too). No test in this package keeps a catalogue object
// across tests, so starting over is safe here.
func TestCatalogueFirstUseConcurrent(t *testing.T) {
	catalogue = [len(constructors)]struct {
		once sync.Once
		b    *Benchmark
	}{}
	const callers = 8
	var wg sync.WaitGroup
	got := make([][]*Benchmark, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 0 {
				got[c] = Suite()
				return
			}
			for _, e := range constructors {
				got[c] = append(got[c], BySlug(e.slug))
			}
		}(c)
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		for i := range got[0] {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d got a different %q object", c, got[0][i].Slug)
			}
		}
	}
}

// TestBySlugAllocatesNothing: once built, a catalogue lookup is a table
// scan; workflow stages and the rack sim call it per stage.
func TestBySlugAllocatesNothing(t *testing.T) {
	BySlug("remote-sensing")
	if got := testing.AllocsPerRun(100, func() { BySlug("remote-sensing") }); got != 0 {
		t.Errorf("BySlug allocates %v times on a built entry, want 0", got)
	}
}

func TestRequestsWithinLambdaCap(t *testing.T) {
	// The paper bounds requests by the AWS payload cap (~20MB).
	for _, b := range Suite() {
		if b.InputBytes > 20*units.MB {
			t.Errorf("%q input %v exceeds the 20MB request cap", b.Slug, b.InputBytes)
		}
	}
}

func TestDataMovementProfiles(t *testing.T) {
	// PPE moves the most data (the paper's highest-gain benchmark);
	// the chatbot the least.
	ppe := BySlug("ppe-detection")
	chat := BySlug("chatbot")
	credit := BySlug("credit-risk")
	for _, b := range Suite() {
		total := b.InputBytes + b.IntermediateBytes
		if total > ppe.InputBytes+ppe.IntermediateBytes {
			t.Errorf("%q moves more data than PPE", b.Slug)
		}
	}
	if chat.InputBytes > 100*units.KB {
		t.Error("chatbot input should be tiny")
	}
	// Credit risk: near-zero compute (the paper's lowest-speedup case).
	if credit.Model.FLOPs() > 10e6 {
		t.Errorf("credit-risk FLOPs = %d, want ~1M", credit.Model.FLOPs())
	}
}

func TestIntermediateMatchesModelInput(t *testing.T) {
	// For the vision benchmarks, the intermediate tensor is the model's
	// input image in fp32.
	for _, slug := range []string{"asset-damage", "clinical", "moderation", "remote-sensing"} {
		b := BySlug(slug)
		want := b.Model.InputShape.Elems() * 4
		if int64(b.IntermediateBytes) != want {
			t.Errorf("%q intermediate = %v, want %v (model input fp32)",
				slug, b.IntermediateBytes, units.Bytes(want))
		}
	}
}

func TestPreprocScalesWithPayload(t *testing.T) {
	// Preprocessing work tracks the raw payload: PPE's is the largest.
	ppe := BySlug("ppe-detection").Preproc.FLOPs()
	chat := BySlug("chatbot").Preproc.FLOPs()
	if ppe < 100*chat {
		t.Errorf("PPE preproc (%d) should dwarf chatbot preproc (%d)", ppe, chat)
	}
}
