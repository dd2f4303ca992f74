package metrics

import "time"

// Min returns the smallest observation.
func (s *Sample) Min() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	return s.values[0]
}

// Max returns the largest observation.
func (s *Sample) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	return s.values[len(s.values)-1]
}

// PolyEval evaluates a polynomial with coefficients lowest-order first.
func PolyEval(coeffs []float64, x float64) float64 {
	var y float64
	for i := len(coeffs) - 1; i >= 0; i-- {
		y = y*x + coeffs[i]
	}
	return y
}
