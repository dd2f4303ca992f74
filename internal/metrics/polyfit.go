package metrics

import (
	"fmt"
	"math"
	"strings"
)

// PolyFit computes the least-squares polynomial of the given degree through
// the (x, y) points, returning coefficients lowest-order first. It solves
// the normal equations with Gaussian elimination and partial pivoting, which
// is plenty for the cubic fits in the Pareto-frontier figures.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("metrics: polyfit length mismatch %d vs %d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("metrics: polyfit negative degree %d", degree)
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("metrics: polyfit needs >= %d points, have %d", n, len(xs))
	}

	// Build normal equations A c = b where A[i][j] = sum x^(i+j).
	powerSums := make([]float64, 2*degree+1)
	for _, x := range xs {
		p := 1.0
		for k := range powerSums {
			powerSums[k] += p
			p *= x
		}
	}
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = powerSums[i+j]
		}
	}
	for k, x := range xs {
		p := 1.0
		for i := 0; i < n; i++ {
			b[i] += ys[k] * p
			p *= x
		}
	}
	return solveLinear(a, b)
}

// solveLinear solves a dense linear system in place with partial pivoting.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot on the largest magnitude entry in this column.
		pivot := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("metrics: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] / a[col][col]
			for j := col; j < n; j++ {
				a[row][j] -= f * a[col][j]
			}
			b[row] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for j := row + 1; j < n; j++ {
			sum -= a[row][j] * x[j]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// PolyString renders the polynomial in the paper's figure-caption style,
// e.g. "P(c) = 9.0e-08c^3 - 9.0e-05c^2 + 3.3e-02c - 2.2".
func PolyString(name string, coeffs []float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(c) = ", name)
	first := true
	for i := len(coeffs) - 1; i >= 0; i-- {
		c := coeffs[i]
		if c == 0 {
			continue
		}
		if !first {
			if c >= 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
				c = -c
			}
		}
		switch i {
		case 0:
			fmt.Fprintf(&sb, "%.4g", c)
		case 1:
			fmt.Fprintf(&sb, "%.4gc", c)
		default:
			fmt.Fprintf(&sb, "%.4gc^%d", c, i)
		}
		first = false
	}
	if first {
		sb.WriteString("0")
	}
	return sb.String()
}
