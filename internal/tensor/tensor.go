// Package tensor provides shape and dtype accounting for the model IR and
// the compiler. No tensor data is materialized: the simulator only needs
// element counts and byte sizes.
package tensor

import (
	"fmt"
	"strings"

	"dscs/internal/units"
)

// DType identifies an element type.
type DType int

// Supported element types. The DSA computes in INT8 with INT32 accumulation
// (as in the paper's PE design); host platforms use FP32/FP16.
const (
	Int8 DType = iota
	Int32
	Float16
	Float32
)

// Size returns the element size in bytes.
func (d DType) Size() units.Bytes {
	switch d {
	case Int8:
		return 1
	case Float16:
		return 2
	case Int32, Float32:
		return 4
	}
	return 4
}

// String names the dtype.
func (d DType) String() string {
	switch d {
	case Int8:
		return "int8"
	case Int32:
		return "int32"
	case Float16:
		return "fp16"
	case Float32:
		return "fp32"
	}
	return "unknown"
}

// Shape is a tensor shape; dimension order is documented by each producer.
type Shape []int

// Elems returns the number of elements (1 for a scalar / empty shape).
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		if d <= 0 {
			return 0
		}
		n *= int64(d)
	}
	return n
}

// String renders the shape as [a b c].
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "[" + strings.Join(parts, "x") + "]"
}
