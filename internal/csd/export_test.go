package csd

import "dscs/internal/units"

// Resident reports whether a function is warm in DSA DRAM.
func (m *MemoryManager) Resident(name string) bool {
	_, ok := m.resident[name]
	return ok
}

// Used reports the occupied DRAM.
func (m *MemoryManager) Used() units.Bytes { return m.used }
