package dse

import (
	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/model"
	"dscs/internal/power"
	"dscs/internal/units"
)

// Evaluate is evaluate with a fresh program and simulator.
func Evaluate(cfg dsa.Config, models []*model.Graph, node power.TechNode, budget units.Power) (Point, error) {
	return evaluate(new(isa.Program), new(dsa.Simulator), cfg, models, node, budget)
}
