package experiments

import (
	"dscs/internal/dse"
	"dscs/internal/metrics"
	"dscs/internal/power"
)

// exploration is the paper's design-space exploration with its two
// frontiers and its optimum, derived once per environment.
type exploration struct {
	points, powerFrontier, areaFrontier []dse.Point
	best                                dse.Point
	found                               bool
}

// explore runs the paper's full design-space exploration once per
// environment (it is shared by Figures 7 and 8).
func (e *Environment) explore() (*exploration, error) {
	if e.sweep != nil {
		return e.sweep, nil
	}
	points, err := dse.Explore(dse.PaperSpace(), power.Node45nm)
	if err != nil {
		return nil, err
	}
	sweep := &exploration{
		points:        points,
		powerFrontier: dse.ParetoPower(points),
		areaFrontier:  dse.ParetoArea(points),
	}
	sweep.best, sweep.found = dse.Optimal(points)
	e.sweep = sweep
	return sweep, nil
}

// paretoResult renders one frontier figure.
func paretoResult(id, title, yName string, sweep *exploration,
	frontier []dse.Point, axes func(dse.Point) (float64, float64)) (*Result, error) {
	t := metrics.NewTable(title, "Design point", "Throughput(req/s)", yName, "Feasible")
	for _, p := range frontier {
		x, y := axes(p)
		t.AddRow(p.Label(), x, y, p.Feasible)
	}
	coeffs, err := dse.FitCubic(frontier, axes)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"configs_explored": float64(len(sweep.points)),
		"frontier_points":  float64(len(frontier)),
		"fit_c0":           coeffs[0],
		"fit_c1":           coeffs[1],
		"fit_c2":           coeffs[2],
		"fit_c3":           coeffs[3],
	}
	if best := sweep.best; sweep.found {
		values["optimal_dim"] = float64(best.Config.Rows)
		values["optimal_buf_mb"] = float64(best.Config.TotalBuf()) / 1e6
		values["optimal_mem_is_ddr5"] = boolTo01(best.Config.DRAM == power.DDR5)
		values["optimal_throughput"] = best.Throughput
	}
	s := &metrics.Series{Name: "frontier"}
	for _, p := range frontier {
		x, _ := axes(p)
		s.Add(0, x)
	}
	return &Result{ID: id, Title: title, Table: t, Values: values, Series: []*metrics.Series{s}}, nil
}

// Fig7 reproduces the power-performance Pareto frontier at 45 nm with its
// cubic fit, and reports the DSE-selected optimum (128x128, 4 MB, DDR5).
func Fig7(env *Environment) (*Result, error) {
	sweep, err := env.explore()
	if err != nil {
		return nil, err
	}
	res, err := paretoResult("fig7", "Power-performance frontier, 45nm",
		"DynPower(W)", sweep, sweep.powerFrontier, dse.PowerAxes)
	if err != nil {
		return nil, err
	}
	// The paper's headline DSE finding: at batch 1 the 1024x1024 array
	// underperforms the 128x128 (tile DMA and fill/drain dominate).
	var t128x4mb, best128, best1024 float64
	for _, p := range sweep.points {
		if p.Config.DRAM != power.DDR5 {
			continue
		}
		if p.Config.Rows == 128 {
			if p.Config.TotalBuf() == 4*1024*1024 {
				t128x4mb = p.Throughput
			}
			if p.Throughput > best128 {
				best128 = p.Throughput
			}
		}
		if p.Config.Rows == 1024 && p.Throughput > best1024 {
			best1024 = p.Throughput
		}
	}
	res.Values["throughput_dim128_4mb"] = t128x4mb
	res.Values["best_throughput_dim128"] = best128
	res.Values["best_throughput_dim1024"] = best1024
	return res, nil
}

// Fig8 reproduces the area-performance frontier at 45 nm with its cubic fit.
func Fig8(env *Environment) (*Result, error) {
	sweep, err := env.explore()
	if err != nil {
		return nil, err
	}
	return paretoResult("fig8", "Area-performance frontier, 45nm",
		"Area(mm2)", sweep, sweep.areaFrontier, dse.AreaAxes)
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
