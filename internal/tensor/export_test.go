package tensor

import "dscs/internal/units"

// Bytes returns the storage size of the shape at the given dtype.
func (s Shape) Bytes(d DType) units.Bytes {
	return units.Bytes(s.Elems()) * d.Size()
}

// WithBatch returns the shape prefixed with a batch dimension.
func (s Shape) WithBatch(b int) Shape {
	out := make(Shape, 0, len(s)+1)
	out = append(out, b)
	out = append(out, s...)
	return out
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}
