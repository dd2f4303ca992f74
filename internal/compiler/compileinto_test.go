package compiler_test

import (
	"reflect"
	"sort"
	"testing"

	"dscs/internal/compiler"
	"dscs/internal/dsa"
	"dscs/internal/dse"
	"dscs/internal/isa"
	"dscs/internal/model"
	"dscs/internal/power"
	"dscs/internal/units"
)

// TestCompileIntoMatchesCompile lowers every suite model on several design
// points into one reused buffer, longest program first, so each later
// program is written over a longer stale one. Every result must equal a
// fresh Compile: a tail of the previous program, or a field it set, must
// not survive into the next.
func TestCompileIntoMatchesCompile(t *testing.T) {
	small := dsa.Config{
		Name: "small", Rows: 8, Cols: 8, VPULanes: 8,
		Freq: units.GHz, DRAM: power.DDR4, DoubleBuffered: true,
	}.WithBuffers(256 * units.KiB)
	big := dsa.Config{
		Name: "big", Rows: 512, Cols: 512, VPULanes: 512,
		Freq: units.GHz, DRAM: power.HBM2, DoubleBuffered: true,
	}.WithBuffers(32 * units.MiB)
	type job struct {
		g     *model.Graph
		batch int
		cfg   dsa.Config
		opts  compiler.Options
		fresh *isa.Program
	}
	var jobs []job
	for _, cfg := range []dsa.Config{dsa.PaperOptimal(), small, big} {
		for _, g := range dse.SuiteModels() {
			for _, batch := range []int{1, 4} {
				for _, opts := range []compiler.Options{{}, {DisableFusion: true}} {
					fresh, err := compiler.Compile(g, batch, cfg, opts)
					if err != nil {
						t.Fatalf("%s on %s: %v", g.Name, cfg.Name, err)
					}
					jobs = append(jobs, job{g, batch, cfg, opts, fresh})
				}
			}
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		return len(jobs[i].fresh.Instrs) > len(jobs[j].fresh.Instrs)
	})
	var buf isa.Program
	for _, j := range jobs {
		if err := compiler.CompileInto(&buf, j.g, j.batch, j.cfg, j.opts); err != nil {
			t.Fatalf("%s on %s: %v", j.g.Name, j.cfg.Name, err)
		}
		if !reflect.DeepEqual(&buf, j.fresh) {
			t.Fatalf("%s on %s (batch %d, %+v): CompileInto over a reused buffer differs from a fresh Compile (%d vs %d instrs)",
				j.g.Name, j.cfg.Name, j.batch, j.opts, len(buf.Instrs), len(j.fresh.Instrs))
		}
	}
	if first, last := len(jobs[0].fresh.Instrs), len(jobs[len(jobs)-1].fresh.Instrs); first == last {
		t.Fatalf("every program has %d instrs; the stale-tail case was not exercised", first)
	}
}
