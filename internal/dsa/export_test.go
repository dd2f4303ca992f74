package dsa

// Config returns the simulated design point.
func (s *Simulator) Config() Config { return s.cfg }
