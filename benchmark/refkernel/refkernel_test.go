package refkernel

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// The reference must not move when the module under test changes, so it may
// import nothing but the standard library.
func TestImportsOnlyTheStandardLibrary(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "refkernel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") || first == "dscs" {
			t.Errorf("refkernel imports %s; it may import the standard library only", path)
		}
	}
}

// iterAllocs is the allocation count of one iteration under go1.24. The
// kernel is a unit of measure: if this number changes (a new Go release, an
// edit to Iter) every norm_* metric is rescaled, RefIterNs in ../harness.go
// has to be measured again, and results stop being comparable with earlier
// ones.
const iterAllocs = 13

var raceDetector bool // set by race_test.go

func TestAllocationCountIsPinned(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	if got := testing.AllocsPerRun(500, func() { Iter() }); got != iterAllocs {
		t.Fatalf("one iteration allocates %v objects, pinned at %d", got, iterAllocs)
	}
}

func TestSlicesReportPositiveTimes(t *testing.T) {
	for name, v := range map[string]float64{"Slice": Slice(50), "DualSlice": DualSlice(50), "Observe": Observe(50)} {
		if v <= 0 {
			t.Errorf("%s(50) = %v ns/iter", name, v)
		}
	}
}
