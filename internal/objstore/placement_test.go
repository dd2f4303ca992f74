package objstore

import (
	"fmt"
	"sort"
	"testing"

	"dscs/internal/csd"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/units"
)

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// sortedPlacement is placement as it was first written, kept as the
// reference: every node scored by hashing the concatenated key and node ID,
// the whole set sorted by descending score, the top cfg.Replicas taken, and
// an acceleratable key's DSCS node swapped into the last slot.
func sortedPlacement(s *Store, key string, chunk int, acceleratable bool) []*Node {
	type scored struct {
		n     *Node
		score uint64
	}
	all := make([]scored, len(s.nodes))
	for i, n := range s.nodes {
		all[i] = scored{n, hashKey(key+n.ID, "", chunk)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	picked := make([]*Node, 0, s.cfg.Replicas)
	for _, sc := range all[:s.cfg.Replicas] {
		picked = append(picked, sc.n)
	}
	if !acceleratable {
		return picked
	}
	var target *Node
	var best uint64
	for _, n := range s.nodes {
		if n.Kind != DSCSDrive {
			continue
		}
		if score := hashKey(key+n.ID, "", 0); target == nil || score > best {
			target, best = n, score
		}
	}
	if target == nil {
		return picked
	}
	for _, n := range picked {
		if n == target {
			return picked
		}
	}
	picked[len(picked)-1] = target
	return picked
}

// placementStore builds a store of plain and DSCS nodes with the given
// replication; node IDs follow the experiments' "ssd-<i>" / "dscs-<i>".
func placementStore(t testing.TB, plain, dscsN, replicas int) *Store {
	t.Helper()
	var nodes []*Node
	for i := 0; i < plain; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &Node{ID: fmt.Sprintf("ssd-%d", i), Kind: PlainSSD, SSD: d})
	}
	for i := 0; i < dscsN; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &Node{ID: fmt.Sprintf("dscs-%d", i), Kind: DSCSDrive, CSD: d})
	}
	cfg := Default()
	cfg.Replicas = replicas
	s, err := New(cfg, nodes, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPlacementMatchesSortedReference compares the insertion placement with
// the sort-based reference over 12,000 (key, chunk, acceleratable) triples
// per shape, at node counts up to 12 (where sort.Slice is an insertion sort)
// and past it, with and without DSCS nodes.
func TestPlacementMatchesSortedReference(t *testing.T) {
	for _, shape := range []struct{ plain, dscsN, replicas int }{
		{4, 2, 3}, {3, 0, 3}, {10, 2, 3}, {11, 1, 1}, {12, 4, 3}, {20, 5, 5}, {30, 2, 3},
	} {
		s := placementStore(t, shape.plain, shape.dscsN, shape.replicas)
		rng := sim.NewRNG(uint64(shape.plain*100 + shape.dscsN))
		for i := 0; i < 12000; i++ {
			key := fmt.Sprintf("bench-%d/stage@b%d", rng.Intn(1000), rng.Intn(16))
			chunk, accel := rng.Intn(8), rng.Intn(2) == 1
			want := sortedPlacement(s, key, chunk, accel)
			got := s.placement(key, chunk, accel)
			if fmt.Sprint(nodeIDs(got)) != fmt.Sprint(nodeIDs(want)) {
				t.Fatalf("%d+%d nodes, %d replicas: placement(%q, %d, %v) = %v, the sorted reference gives %v",
					shape.plain, shape.dscsN, shape.replicas, key, chunk, accel, nodeIDs(got), nodeIDs(want))
			}
		}
	}
}

func nodeIDs(nodes []*Node) []string {
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids
}

// TestHashKeyStreamsID pins the streamed (key, id) hash to the hash of the
// concatenation it replaced: placement scores must not move.
func TestHashKeyStreamsID(t *testing.T) {
	for _, key := range []string{"", "k", "clinical/input", "wf/7/resize@b8", "naïve/ключ"} {
		for _, id := range []string{"", "ssd-0", "dscs-1", "node-with-a-long-identifier"} {
			for _, salt := range []int{0, 1, 7, -3, 1 << 40} {
				if got, want := hashKey(key, id, salt), hashKey(key+id, "", salt); got != want {
					t.Errorf("hashKey(%q, %q, %d) = %#x, hashKey of the concatenation gives %#x", key, id, salt, got, want)
				}
			}
		}
	}
}

// TestPlacementAllocations pins placement at zero allocations and a
// new-object PutAt at its metadata alone: one Object, which holds a single
// chunk and its replicas inline; a multi-chunk object adds its Chunks and
// one Replicas slice for each chunk after the first.
func TestPlacementAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := placementStore(t, 4, 2, 3)
	for _, accel := range []bool{false, true} {
		got := testing.AllocsPerRun(200, func() {
			s.mu.Lock()
			s.placement("asset-damage/input", 0, accel)
			s.mu.Unlock()
		})
		if got != 0 {
			t.Errorf("placement (acceleratable %v) allocates %v times, want 0", accel, got)
		}
	}
	for _, tc := range []struct {
		size   units.Bytes
		chunks int
	}{{4 * units.MB, 1}, {80 * units.MB, 3}} {
		got := testing.AllocsPerRun(100, func() {
			s.Delete("fresh")
			if _, _, err := s.PutAt("fresh", tc.size, true, 0.5); err != nil {
				t.Fatal(err)
			}
		})
		want := 1.0
		if tc.chunks > 1 {
			want = float64(1 + tc.chunks)
		}
		if got > want {
			t.Errorf("new-object PutAt of %v (%d chunks) allocates %v times, want <= %v",
				tc.size, tc.chunks, got, want)
		}
	}
}

// BenchmarkPlacement times one chunk's placement on the experiments' six
// nodes (four plain, two DSCS) for an acceleratable key.
func BenchmarkPlacement(b *testing.B) {
	s := placementStore(b, 4, 2, 3)
	b.ReportAllocs()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < b.N; i++ {
		s.placement("asset-damage/input", i&7, true)
	}
}

// BenchmarkPutNew times a new object's PutAt: placement, metadata and the
// replicas' drive writes, a 4 MB single-chunk object at quantile 0.5.
func BenchmarkPutNew(b *testing.B) {
	s := placementStore(b, 4, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Delete("fresh")
		if _, _, err := s.PutAt("fresh", 4*units.MB, true, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
