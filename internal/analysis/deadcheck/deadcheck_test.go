package deadcheck_test

import (
	"testing"

	"dscs/internal/analysis"
	"dscs/internal/analysis/analysistest"
	"dscs/internal/analysis/deadcheck"
)

func TestDeclarationsNeedAReader(t *testing.T) {
	analysistest.Run(t, deadcheck.Analyzer, "deadmod")
}

// A run over one package judges it by the whole module's readers: lib's
// ReadByOtherTest and ReadByReader stay unflagged although neither the
// app's test nor the reader module is among the patterns.
func TestSubPatternSeesWholeModule(t *testing.T) {
	analysistest.Run(t, deadcheck.Analyzer, "deadmod", "./lib")
}

// The same holds on this repository: internal/cluster's RunWorkflows is
// read only by the nested benchmark module, so a run over the package
// alone must still find it live.
func TestRepoSubPatternHasNoFalsePositives(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./internal/cluster")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Run(pkgs, []*analysis.Analyzer{deadcheck.Analyzer}) {
		t.Errorf("%s", d)
	}
}
