// Package objstore implements the disaggregated S3-class object store the
// serverless functions exchange data through: a set of storage nodes with
// real drive models, chunked and replicated objects, hash placement with
// DSCS-aware replica mapping (Section 5.2), and GET/PUT latencies composed
// from the RPC stack, the network fabric, and the device.
package objstore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"dscs/internal/csd"
	"dscs/internal/network"
	"dscs/internal/rpc"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/units"
)

// NodeKind distinguishes conventional storage nodes from DSCS-capable ones.
type NodeKind int

// Node kinds.
const (
	PlainSSD NodeKind = iota
	DSCSDrive
)

// Node is one storage server.
type Node struct {
	ID   string
	Kind NodeKind

	// Exactly one of the two is set, matching Kind.
	SSD *ssd.Drive
	CSD *csd.Drive

	nextOffset int64
	health     Health
}

// Drive returns the conventional-storage personality of the node. A
// DSCS-Drive serves standard reads/writes through its embedded SSD.
func (n *Node) Drive() *ssd.Drive {
	if n.Kind == DSCSDrive {
		return n.CSD.SSD()
	}
	return n.SSD
}

// hostRead serves a conventional host read. On a DSCS-Drive it takes the
// arbitration-aware path: while the in-storage DSA is held (the serving
// engine acquires it for the execution), the shared flash channels derate
// the read by csd.ArbitrationPenalty (Section 5.2).
func (n *Node) hostRead(offset int64, size units.Bytes) (time.Duration, units.Energy) {
	if n.Kind == DSCSDrive {
		return n.CSD.HostReadConcurrent(offset, size)
	}
	return n.SSD.HostRead(offset, size)
}

// hostWrite is the write-side analogue of hostRead.
func (n *Node) hostWrite(offset int64, size units.Bytes) (time.Duration, units.Energy) {
	if n.Kind == DSCSDrive {
		return n.CSD.HostWriteConcurrent(offset, size)
	}
	return n.SSD.HostWrite(offset, size)
}

// Replica locates one copy of a chunk.
type Replica struct {
	NodeID string
	Offset int64
}

// Chunk is a fixed-size piece of an object.
type Chunk struct {
	Index    int
	Size     units.Bytes
	Replicas []Replica
}

// Object is a stored value.
type Object struct {
	Key    string
	Size   units.Bytes
	Chunks []Chunk
	// Acceleratable marks objects whose consumers are DSA functions; one
	// replica is mapped to a DSCS-Drive at placement time.
	Acceleratable bool
}

// Config parameterizes the store.
type Config struct {
	Replicas  int
	ChunkSize units.Bytes // 1-64 MB per the GFS-style chunking discussion
	Fabric    network.Fabric
	Codec     rpc.Codec
	Stack     rpc.Stack
}

// Default returns the paper's baseline setup: 3-way replication, 32 MB
// chunks (serverless requests stay <=20 MB and therefore on one drive,
// Section 5.2), intra-datacenter fabric, protobuf RPCs.
func Default() Config {
	return Config{
		Replicas:  3,
		ChunkSize: 32 * units.MB,
		Fabric:    network.IntraDC(),
		Codec:     rpc.Protobuf(),
		Stack:     rpc.DefaultStack(),
	}
}

// Validate rejects inconsistent configs.
func (c Config) Validate() error {
	if c.Replicas <= 0 {
		return fmt.Errorf("objstore: non-positive replica count")
	}
	if c.ChunkSize < units.MB || c.ChunkSize > 64*units.MB {
		return fmt.Errorf("objstore: chunk size %v outside 1-64MB", c.ChunkSize)
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	if err := c.Codec.Validate(); err != nil {
		return err
	}
	return nil
}

// Store is the object store. It is safe for concurrent use: one lock
// serializes metadata, placement cursors, and drive access — the
// metadata-service bottleneck a real disaggregated store also has — while
// stochastic network sampling draws from a per-operation stream split off
// the seed RNG, so concurrent invocations never share a generator.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	nodes   []*Node
	byID    map[string]*Node
	objects map[string]*Object
	rng     *sim.RNG
	// priced is the fabric at the last analytic quantile asked for: the
	// store prices the fabric once per quantile, not once per request.
	priced network.Priced
}

// New assembles a store over the given nodes.
func New(cfg Config, nodes []*Node, rng *sim.RNG) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) < cfg.Replicas {
		return nil, fmt.Errorf("objstore: %d nodes cannot hold %d replicas",
			len(nodes), cfg.Replicas)
	}
	byID := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("objstore: node with empty ID")
		}
		if _, dup := byID[n.ID]; dup {
			return nil, fmt.Errorf("objstore: duplicate node %q", n.ID)
		}
		if n.Kind == DSCSDrive && n.CSD == nil || n.Kind == PlainSSD && n.SSD == nil {
			return nil, fmt.Errorf("objstore: node %q missing its drive", n.ID)
		}
		byID[n.ID] = n
	}
	return &Store{
		cfg:     cfg,
		nodes:   nodes,
		byID:    byID,
		objects: make(map[string]*Object),
		rng:     rng,
	}, nil
}

// Nodes returns the storage nodes.
func (s *Store) Nodes() []*Node { return s.nodes }

// Node returns a node by ID.
func (s *Store) Node(id string) (*Node, bool) {
	n, ok := s.byID[id]
	return n, ok
}

// hashKey maps a key to a stable placement seed: 64-bit FNV-1a over the
// bytes of "<key>#<salt>", salt in decimal. Placement and replica choice
// hang off this value, so the byte sequence is fixed; it is hashed in place
// because every GetAt calls it once per chunk.
//
//dscslint:hotpath
func hashKey(key string, salt int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	h = (h ^ '#') * prime64
	var buf [20]byte // len("-9223372036854775808")
	for _, c := range strconv.AppendInt(buf[:0], int64(salt), 10) {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// dscsNodeFor deterministically selects the DSCS-capable node for a key
// (chunk-independent, so every chunk of an acceleratable object lands on
// the same drive and the whole request stays device-local).
func (s *Store) dscsNodeFor(key string) *Node {
	var best *Node
	var bestScore uint64
	for _, n := range s.nodes {
		if n.Kind != DSCSDrive {
			continue
		}
		if score := hashKey(key+n.ID, 0); best == nil || score > bestScore {
			best, bestScore = n, score
		}
	}
	return best
}

// placement returns the replica node set for a chunk: rendezvous hashing
// over all nodes, then — for acceleratable objects — the key's DSCS node
// swapped into the set (the Section 5.2 replica-mapping rule).
func (s *Store) placement(key string, chunk int, acceleratable bool) []*Node {
	type scored struct {
		n     *Node
		score uint64
	}
	all := make([]scored, len(s.nodes))
	for i, n := range s.nodes {
		all[i] = scored{n, hashKey(key+n.ID, chunk)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	picked := make([]*Node, 0, s.cfg.Replicas)
	for _, sc := range all[:s.cfg.Replicas] {
		picked = append(picked, sc.n)
	}
	if !acceleratable {
		return picked
	}
	target := s.dscsNodeFor(key)
	if target == nil {
		return picked // no DSCS nodes exist
	}
	for _, n := range picked {
		if n == target {
			return picked // already covered
		}
	}
	picked[len(picked)-1] = target
	return picked
}

// requestPathCost is the RPC software cost of one storage request.
func requestPathCost(cfg Config, payload units.Bytes) time.Duration {
	return rpc.RequestPath(cfg.Codec, cfg.Stack, payload)
}

// stream derives an independent per-operation RNG stream. Callers must hold
// s.mu; the returned stream is then private to the operation, so sampling
// never races even when many invocations overlap.
func (s *Store) stream(q float64) *sim.RNG {
	if q > 0 {
		return nil // analytic quantile path draws nothing
	}
	return s.rng.Split()
}

// fabricLatency evaluates the network component: a positive quantile gives
// the analytic value (the tail sweeps of Figure 15), repricing the fabric
// only when the quantile changes; zero or negative samples stochastically
// from the operation's split stream. Callers hold s.mu.
func (s *Store) fabricLatency(payload units.Bytes, q float64, rng *sim.RNG) time.Duration {
	if q <= 0 {
		return s.cfg.Fabric.RequestLatency(payload, rng)
	}
	if !s.priced.Matches(s.cfg.Fabric, q) {
		s.priced = s.cfg.Fabric.At(q)
	}
	return s.priced.Latency(payload)
}

// chunkFabric prices a chunk's network component once for all its
// replicas on the analytic path. It returns zero, and draws nothing, on the
// sampled one, where each replica draws its own in replica order. Callers
// hold s.mu.
func (s *Store) chunkFabric(cs units.Bytes, q float64) time.Duration {
	if q > 0 {
		return s.fabricLatency(cs, q, nil)
	}
	return 0
}

// PutAt stores an object and returns the client-visible latency and the
// device energy: chunks stream sequentially; replicas of one chunk write in
// parallel (latency is the slowest replica). Re-putting an existing key of
// the same size overwrites in place, reusing its replica offsets.
//
//dscslint:hotpath
func (s *Store) PutAt(key string, size units.Bytes, acceleratable bool, q float64) (time.Duration, units.Energy, error) {
	if size <= 0 {
		//dscslint:allow hotpathcheck cold branch: caller error
		return 0, 0, fmt.Errorf("objstore: non-positive object size")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rng := s.stream(q)
	if old, ok := s.objects[key]; ok && old.Size == size && old.Acceleratable == acceleratable {
		return s.overwrite(old, q, rng)
	}
	obj := &Object{Key: key, Size: size, Acceleratable: acceleratable}
	var total time.Duration
	var energy units.Energy
	for idx, remaining := 0, size; remaining > 0; idx++ {
		cs := s.cfg.ChunkSize
		if remaining < cs {
			cs = remaining
		}
		remaining -= cs
		//dscslint:allow hotpathcheck placement runs once per new object; an existing one took the overwrite branch
		nodes := s.placement(key, idx, acceleratable)
		chunk := Chunk{Index: idx, Size: cs}
		path, fab := rpc.RequestPath(s.cfg.Codec, s.cfg.Stack, cs), s.chunkFabric(cs, q)
		var slowest time.Duration
		for _, n := range nodes {
			off := n.nextOffset
			n.nextOffset += int64(s.cfg.ChunkSize)
			chunk.Replicas = append(chunk.Replicas, Replica{NodeID: n.ID, Offset: off})
			devLat, devEnergy := n.hostWrite(off, cs)
			energy += devEnergy
			if q <= 0 {
				fab = s.fabricLatency(cs, q, rng)
			}
			lat := path + fab + devLat
			if lat > slowest {
				slowest = lat
			}
		}
		total += slowest
		obj.Chunks = append(obj.Chunks, chunk)
	}
	s.objects[key] = obj
	return total, energy, nil
}

// overwrite re-writes an object in place. Callers hold s.mu.
func (s *Store) overwrite(obj *Object, q float64, rng *sim.RNG) (time.Duration, units.Energy, error) {
	var total time.Duration
	var energy units.Energy
	for _, chunk := range obj.Chunks {
		path, fab := rpc.RequestPath(s.cfg.Codec, s.cfg.Stack, chunk.Size), s.chunkFabric(chunk.Size, q)
		var slowest time.Duration
		for _, rep := range chunk.Replicas {
			n := s.byID[rep.NodeID]
			devLat, devEnergy := n.hostWrite(rep.Offset, chunk.Size)
			energy += devEnergy
			if q <= 0 {
				fab = s.fabricLatency(chunk.Size, q, rng)
			}
			lat := path + fab + devLat
			if lat > slowest {
				slowest = lat
			}
		}
		total += slowest
	}
	return total, energy, nil
}

// Put stores an object with sampled network latency.
func (s *Store) Put(key string, size units.Bytes, acceleratable bool) (time.Duration, error) {
	lat, _, err := s.PutAt(key, size, acceleratable, -1)
	return lat, err
}

// GetAt reads an object back to a remote client, returning latency and
// device energy; a positive q selects the network quantile (else sampled).
//
//dscslint:hotpath
func (s *Store) GetAt(key string, q float64) (time.Duration, units.Energy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	if !ok {
		//dscslint:allow hotpathcheck cold branch: caller error
		return 0, 0, fmt.Errorf("objstore: no such key %q", key)
	}
	rng := s.stream(q)
	var total time.Duration
	var energy units.Energy
	for _, chunk := range obj.Chunks {
		rep := chunk.Replicas[int(hashKey(key, chunk.Index)%uint64(len(chunk.Replicas)))]
		n := s.byID[rep.NodeID]
		devLat, devEnergy := n.hostRead(rep.Offset, chunk.Size)
		energy += devEnergy
		total += rpc.RequestPath(s.cfg.Codec, s.cfg.Stack, chunk.Size) +
			s.fabricLatency(chunk.Size, q, rng) + devLat
	}
	return total, energy, nil
}

// Get reads an object with sampled network latency.
func (s *Store) Get(key string) (time.Duration, error) {
	lat, _, err := s.GetAt(key, -1)
	return lat, err
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Lookup returns the stored object metadata.
func (s *Store) Lookup(key string) (*Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	return obj, ok
}

// DSCSReplica returns the DSCS-capable node and drive offset holding the
// object, for in-storage execution. Every chunk must reside on the same
// DSCS drive (the placement rule pins acceleratable keys); objects spread
// across drives fall back to conventional execution per Section 5.2,
// reported as ok=false.
func (s *Store) DSCSReplica(key string) (node *Node, offset int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dscsReplica(key)
}

// dscsReplica is DSCSReplica without the lock; callers hold s.mu.
func (s *Store) dscsReplica(key string) (node *Node, offset int64, ok bool) {
	obj, exists := s.objects[key]
	if !exists || len(obj.Chunks) == 0 {
		return nil, 0, false
	}
	var target *Node
	var firstOffset int64
	for _, chunk := range obj.Chunks {
		found := false
		for _, rep := range chunk.Replicas {
			n := s.byID[rep.NodeID]
			if n.Kind != DSCSDrive {
				continue
			}
			if target == nil {
				target = n
				firstOffset = rep.Offset
			}
			if n == target {
				found = true
				break
			}
		}
		if !found {
			return nil, 0, false
		}
	}
	return target, firstOffset, true
}

// Delete removes an object's metadata (space reclamation is the FTL's
// concern and modeled there).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
}
