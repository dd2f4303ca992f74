// memcache.go implements the DSA's function-memory manager (Section 5.3):
// function images (weights + executable) stay resident in the DSA's DRAM
// between invocations; when another function needs the space, the old image
// is offloaded to flash over the P2P interconnect instead of being dropped,
// so the next invocation reloads it via P2P instead of re-fetching it from
// the serverless framework's registry over the network.
package csd

import (
	"fmt"
	"time"

	"dscs/internal/units"
)

// FunctionImage is one function's resident footprint.
type FunctionImage struct {
	Name  string
	Bytes units.Bytes
}

// LoadSource says where an Ensure call found the image.
type LoadSource int

// Load sources, cheapest first.
const (
	FromResident LoadSource = iota // warm: already in DSA DRAM
	FromFlash                      // evicted earlier: P2P reload
	FromRegistry                   // first use: network pull
)

// String names the source.
func (s LoadSource) String() string {
	switch s {
	case FromResident:
		return "resident"
	case FromFlash:
		return "flash-p2p"
	case FromRegistry:
		return "registry"
	}
	return "unknown"
}

// MemoryManager tracks residency in the DSA's DRAM with LRU eviction to
// flash. Not safe for concurrent use; the drive serializes function
// execution anyway (run-to-completion).
type MemoryManager struct {
	drive    *Drive
	capacity units.Bytes
	// registryPull prices a first-time image fetch over the network.
	registryPull func(units.Bytes) time.Duration

	resident map[string]*residentEntry
	order    []string // LRU order: front = least recently used
	used     units.Bytes
	// backing holds every known image's flash copy (weights are immutable,
	// so the first load persists a backing copy and eviction is free).
	backing map[string]int64
	nextOff int64

	hits, flashLoads, registryLoads, evictions int
}

type residentEntry struct {
	img FunctionImage
}

// NewMemoryManager sizes the manager to the DSA DRAM capacity.
func NewMemoryManager(drive *Drive, capacity units.Bytes,
	registryPull func(units.Bytes) time.Duration) (*MemoryManager, error) {
	if drive == nil {
		return nil, fmt.Errorf("csd: nil drive")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("csd: non-positive DRAM capacity")
	}
	if registryPull == nil {
		registryPull = func(b units.Bytes) time.Duration {
			// Default: a 1.25 GB/s registry path with a fixed handshake.
			return 25*time.Millisecond + (1250 * units.MBps).TransferTime(b)
		}
	}
	return &MemoryManager{
		drive:        drive,
		capacity:     capacity,
		registryPull: registryPull,
		resident:     make(map[string]*residentEntry),
		backing:      make(map[string]int64),
		nextOff:      weightRegionBase,
	}, nil
}

// weightRegionBase is the drive-local region for offloaded images.
const weightRegionBase = int64(1) << 44

// touch moves a function to the most-recently-used position.
func (m *MemoryManager) touch(name string) {
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.order = append(m.order, name)
}

// Ensure makes an image resident, returning the latency, energy, and where
// the image came from.
func (m *MemoryManager) Ensure(img FunctionImage) (time.Duration, units.Energy, LoadSource, error) {
	if img.Name == "" || img.Bytes <= 0 {
		return 0, 0, FromRegistry, fmt.Errorf("csd: invalid image %+v", img)
	}
	if img.Bytes > m.capacity {
		return 0, 0, FromRegistry, fmt.Errorf(
			"csd: image %q (%v) exceeds DSA DRAM (%v)", img.Name, img.Bytes, m.capacity)
	}
	if _, ok := m.resident[img.Name]; ok {
		m.hits++
		m.touch(img.Name)
		return 0, 0, FromResident, nil
	}

	// Make room first (evictions offload to flash over P2P).
	var lat time.Duration
	var energy units.Energy
	for m.used+img.Bytes > m.capacity {
		evLat, evEnergy, err := m.evictLRU()
		if err != nil {
			return lat, energy, FromRegistry, err
		}
		lat += evLat
		energy += evEnergy
	}

	src := FromRegistry
	if off, known := m.backing[img.Name]; known {
		// P2P reload from the flash backing copy: the Section 5.3 fast
		// path, replacing a network fetch with a device-local transfer.
		ldLat, ldEnergy := m.drive.LoadWeights(img.Name, img.Bytes, off)
		lat += ldLat
		energy += ldEnergy
		m.flashLoads++
		src = FromFlash
	} else {
		// First use: pull over the network and stage into DSA DRAM. The
		// image is immutable, so a backing copy is persisted to flash off
		// the critical path (energy charged, latency hidden).
		lat += m.registryPull(img.Bytes)
		off := m.alloc(img.Bytes)
		stage, stageEnergy := m.drive.LoadWeights(img.Name, img.Bytes, off)
		_, persistEnergy := m.drive.SSD().InternalWrite(off, img.Bytes)
		lat += stage
		energy += stageEnergy + persistEnergy
		m.backing[img.Name] = off
		m.registryLoads++
	}

	m.resident[img.Name] = &residentEntry{img: img}
	m.used += img.Bytes
	m.touch(img.Name)
	return lat, energy, src, nil
}

// alloc reserves a flash region for an image's backing copy.
func (m *MemoryManager) alloc(b units.Bytes) int64 {
	off := m.nextOff
	m.nextOff += int64(b) + 1<<20
	return off
}

// evictLRU drops the least-recently-used image from DSA DRAM. Its backing
// copy already lives in flash (weights are immutable), so eviction is a
// metadata operation; images that somehow lack a backing copy pay the
// offload over P2P (the paper's general case).
func (m *MemoryManager) evictLRU() (time.Duration, units.Energy, error) {
	if len(m.order) == 0 {
		return 0, 0, fmt.Errorf("csd: nothing to evict")
	}
	victim := m.order[0]
	m.order = m.order[1:]
	entry := m.resident[victim]
	delete(m.resident, victim)
	m.used -= entry.img.Bytes
	m.evictions++
	if _, known := m.backing[victim]; known {
		return 0, 0, nil
	}
	off := m.alloc(entry.img.Bytes)
	lat, energy := m.drive.EvictWeights(entry.img.Bytes, off)
	m.backing[victim] = off
	return lat, energy, nil
}

// Stats reports hit/load/eviction counters.
func (m *MemoryManager) Stats() (hits, flashLoads, registryLoads, evictions int) {
	return m.hits, m.flashLoads, m.registryLoads, m.evictions
}
