package objstore

import (
	"time"

	"dscs/internal/units"
)

// DSCSReplica is dscsReplica under the store lock.
func (s *Store) DSCSReplica(key string) (node *Node, offset int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dscsReplica(key)
}

// Delete removes an object's metadata (space reclamation is the FTL's
// concern and modeled there).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
}

// Node returns a node by ID.
func (s *Store) Node(id string) (*Node, bool) {
	n, ok := s.byID[id]
	return n, ok
}

// Put stores an object with sampled network latency.
func (s *Store) Put(key string, size units.Bytes, acceleratable bool) (time.Duration, error) {
	lat, _, err := s.PutAt(key, size, acceleratable, -1)
	return lat, err
}

// Get reads an object with sampled network latency.
func (s *Store) Get(key string) (time.Duration, error) {
	lat, _, err := s.GetAt(key, -1)
	return lat, err
}

// HealthyNodes counts nodes currently serving.
func (s *Store) HealthyNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := 0
	for _, n := range s.nodes {
		if n.healthy() {
			c++
		}
	}
	return c
}
