// Package objstore implements the disaggregated S3-class object store the
// serverless functions exchange data through: a set of storage nodes with
// real drive models, chunked and replicated objects, hash placement with
// DSCS-aware replica mapping (Section 5.2), and GET/PUT latencies composed
// from the RPC stack, the network fabric, and the device.
package objstore

import (
	"fmt"
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
	// picked and scores are placement's scratch, cfg.Replicas long.
	picked []*Node
	scores []uint64
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
		picked:  make([]*Node, 0, cfg.Replicas),
		scores:  make([]uint64, 0, cfg.Replicas),
	}, nil
}

// Nodes returns the storage nodes.
func (s *Store) Nodes() []*Node { return s.nodes }

// hashKey maps a key to a stable placement seed: 64-bit FNV-1a over the
// bytes of "<key><id>#<salt>", salt in decimal. Placement scores a node by
// the key followed by the node's ID, and a read picks its replica by the key
// alone (id ""). Placement and replica choice hang off this value, so the
// byte sequence is fixed; it is hashed in place, the key and the ID
// streamed one after the other, because every GetAt calls it once per chunk
// and every placement once per node.
//
//dscslint:hotpath
func hashKey(key, id string, salt int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime64
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
		if score := hashKey(key, n.ID, 0); best == nil || score > bestScore {
			best, bestScore = n, score
		}
	}
	return best
}

// placement returns the replica node set for a chunk: rendezvous hashing
// over all nodes, the cfg.Replicas highest scores in descending order (ties
// in node order), then — for acceleratable objects — the key's DSCS node
// swapped into the set (the Section 5.2 replica-mapping rule). The set is
// the store's scratch, valid until the next placement; callers hold s.mu.
func (s *Store) placement(key string, chunk int, acceleratable bool) []*Node {
	picked, scores := s.picked[:0], s.scores[:0]
	for _, n := range s.nodes {
		score := hashKey(key, n.ID, chunk)
		// Insert behind every equal or higher score, so equal scores keep
		// node order; a full set drops its lowest.
		j := len(picked)
		for j > 0 && scores[j-1] < score {
			j--
		}
		if j == s.cfg.Replicas {
			continue
		}
		if len(picked) < s.cfg.Replicas {
			picked, scores = append(picked, nil), append(scores, 0)
		}
		copy(picked[j+1:], picked[j:])
		copy(scores[j+1:], scores[j:])
		picked[j], scores[j] = n, score
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
	// A new object allocates its metadata and nothing else: the Object, its
	// Chunks, and each chunk's Replicas, each at its final size.
	chunks := (size + s.cfg.ChunkSize - 1) / s.cfg.ChunkSize
	obj := &Object{Key: key, Size: size, Acceleratable: acceleratable, Chunks: make([]Chunk, 0, chunks)}
	var total time.Duration
	var energy units.Energy
	for idx, remaining := 0, size; remaining > 0; idx++ {
		cs := s.cfg.ChunkSize
		if remaining < cs {
			cs = remaining
		}
		remaining -= cs
		nodes := s.placement(key, idx, acceleratable)
		chunk := Chunk{Index: idx, Size: cs, Replicas: make([]Replica, 0, len(nodes))}
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

// retryPenalty is what a read pays for each dead replica it tries before a
// live one: the health probe and the client's retry.
const retryPenalty = 2 * time.Millisecond

// GetAt reads an object back to a remote client, returning latency and
// device energy; a positive q selects the network quantile (else sampled).
// Each chunk is read from its hashed replica, or, while that node is down,
// from the next live one in rotation, at retryPenalty per dead replica
// tried. It fails only when every replica of some chunk is down.
//
//dscslint:hotpath
func (s *Store) GetAt(key string, q float64) (time.Duration, units.Energy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	if !ok {
		return 0, 0, &readError{key: key, chunk: -1}
	}
	rng := s.stream(q)
	var total time.Duration
	var energy units.Energy
	for _, chunk := range obj.Chunks {
		n := len(chunk.Replicas)
		start := int(hashKey(key, "", chunk.Index) % uint64(n))
		tried := 0
		for ; tried < n; tried++ {
			rep := chunk.Replicas[(start+tried)%n]
			node := s.byID[rep.NodeID]
			if node.healthy() {
				devLat, devEnergy := node.hostRead(rep.Offset, chunk.Size)
				energy += devEnergy
				total += rpc.RequestPath(s.cfg.Codec, s.cfg.Stack, chunk.Size) +
					s.fabricLatency(chunk.Size, q, rng) + devLat
				break
			}
			total += retryPenalty
		}
		if tried == n {
			return total, energy, &readError{key: key, chunk: chunk.Index, replicas: n}
		}
	}
	return total, energy, nil
}

// GetWithFailover is GetAt: every read fails over. Both names stay only
// because the benchmark harness (benchmark/probes.go) probes both.
func (s *Store) GetWithFailover(key string, q float64) (time.Duration, units.Energy, error) {
	return s.GetAt(key, q)
}

// readError is a failed read: a missing key (chunk -1), or a chunk whose
// every replica is down. It formats only when printed, so the read path
// builds no message.
type readError struct {
	key             string
	chunk, replicas int
}

func (e *readError) Error() string {
	if e.chunk < 0 {
		return fmt.Sprintf("objstore: no such key %q", e.key)
	}
	return fmt.Sprintf("objstore: all %d replicas of %q chunk %d are down", e.replicas, e.key, e.chunk)
}

// Lookup returns the stored object metadata.
func (s *Store) Lookup(key string) (*Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	return obj, ok
}

// dscsReplica returns the DSCS-capable node and drive offset holding the
// object, for in-storage execution; callers hold s.mu. Every chunk must
// reside on the same DSCS drive (the placement rule pins acceleratable
// keys); objects spread across drives fall back to conventional execution
// per Section 5.2, reported as ok=false.
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
