package objstore

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"dscs/internal/csd"
	"dscs/internal/sim"
	"dscs/internal/ssd"
	"dscs/internal/units"
	"dscs/internal/workload"
)

func testStore(t *testing.T, plain, dscsN int) *Store {
	t.Helper()
	var nodes []*Node
	for i := 0; i < plain; i++ {
		d, err := ssd.New(ssd.SmartSSDClass())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &Node{ID: "ssd-" + string(rune('a'+i)), Kind: PlainSSD, SSD: d})
	}
	for i := 0; i < dscsN; i++ {
		d, err := csd.New(csd.Default())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &Node{ID: "dscs-" + string(rune('a'+i)), Kind: DSCSDrive, CSD: d})
	}
	s, err := New(Default(), nodes, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t, 4, 2)
	putLat, err := s.Put("img", 3*units.MB, false)
	if err != nil {
		t.Fatal(err)
	}
	if putLat <= 0 {
		t.Fatal("put must take time")
	}
	getLat, err := s.Get("img")
	if err != nil {
		t.Fatal(err)
	}
	if getLat <= 0 {
		t.Fatal("get must take time")
	}
	obj, ok := s.Lookup("img")
	if !ok || obj.Size != 3*units.MB || len(obj.Chunks) != 1 {
		t.Fatalf("lookup: %+v ok=%v", obj, ok)
	}
	if len(obj.Chunks[0].Replicas) != 3 {
		t.Fatalf("replicas = %d, want 3", len(obj.Chunks[0].Replicas))
	}
}

func TestGetMissing(t *testing.T) {
	s := testStore(t, 3, 0)
	if _, err := s.Get("nope"); err == nil {
		t.Fatal("missing key must error")
	}
}

func TestChunking(t *testing.T) {
	s := testStore(t, 4, 2)
	if _, err := s.Put("big", 70*units.MB, false); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Lookup("big")
	if len(obj.Chunks) != 3 { // 32 + 32 + 6
		t.Fatalf("chunks = %d, want 3", len(obj.Chunks))
	}
	var total units.Bytes
	for _, c := range obj.Chunks {
		total += c.Size
	}
	if total != 70*units.MB {
		t.Fatalf("chunk sizes sum to %v", total)
	}
}

func TestDSCSAwarePlacement(t *testing.T) {
	s := testStore(t, 4, 2)
	// Acceleratable objects always land one replica on a DSCS node.
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if _, err := s.Put(key, 2*units.MB, true); err != nil {
			t.Fatal(err)
		}
		node, _, ok := s.DSCSReplica(key)
		if !ok {
			t.Fatalf("key %q has no DSCS replica", key)
		}
		if node.Kind != DSCSDrive {
			t.Fatalf("key %q mapped to %q", key, node.ID)
		}
	}
	// Non-acceleratable objects are not forced onto DSCS nodes... but may
	// land there by hash; what matters is the accelerated ones always do.
}

func TestMultiChunkStaysOnOneDSCSDrive(t *testing.T) {
	s := testStore(t, 4, 2)
	// A batched request larger than one chunk must still be device-local.
	if _, err := s.Put("batch", 90*units.MB, true); err != nil {
		t.Fatal(err)
	}
	node, _, ok := s.DSCSReplica("batch")
	if !ok {
		t.Fatal("multi-chunk acceleratable object should stay on one drive")
	}
	obj, _ := s.Lookup("batch")
	for _, chunk := range obj.Chunks {
		found := false
		for _, rep := range chunk.Replicas {
			if rep.NodeID == node.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("chunk %d missing from %q", chunk.Index, node.ID)
		}
	}
}

func TestNonAcceleratableNoDSCSGuarantee(t *testing.T) {
	s := testStore(t, 4, 0) // no DSCS nodes at all
	if _, err := s.Put("x", units.MB, true); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.DSCSReplica("x"); ok {
		t.Fatal("no DSCS nodes exist; replica lookup must fail")
	}
}

func TestOverwriteReusesOffsets(t *testing.T) {
	s := testStore(t, 4, 2)
	if _, err := s.Put("k", 2*units.MB, true); err != nil {
		t.Fatal(err)
	}
	first, _ := s.Lookup("k")
	firstReps := append([]Replica(nil), first.Chunks[0].Replicas...)
	// Re-put of same size overwrites in place.
	if _, err := s.Put("k", 2*units.MB, true); err != nil {
		t.Fatal(err)
	}
	second, _ := s.Lookup("k")
	for i, rep := range second.Chunks[0].Replicas {
		if rep != firstReps[i] {
			t.Fatal("overwrite must reuse replica offsets")
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	s := testStore(t, 4, 2)
	if _, err := s.Put("q", 4*units.MB, false); err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for _, q := range []float64{0.5, 0.9, 0.99} {
		lat, _, err := s.GetAt("q", q)
		if err != nil {
			t.Fatal(err)
		}
		if lat <= prev {
			t.Fatalf("latency not increasing with quantile at %v", q)
		}
		prev = lat
	}
}

func TestLargerPayloadSlowerRead(t *testing.T) {
	s := testStore(t, 4, 2)
	s.Put("small", 64*units.KB, false)
	s.Put("large", 16*units.MB, false)
	smallLat, _, _ := s.GetAt("small", 0.5)
	largeLat, _, _ := s.GetAt("large", 0.5)
	if largeLat <= smallLat {
		t.Errorf("16MB read (%v) should exceed 64KB read (%v)", largeLat, smallLat)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := New(Default(), nil, sim.NewRNG(1)); err == nil {
		t.Error("no nodes must fail")
	}
	bad := Default()
	bad.ChunkSize = 100 * units.MB
	if err := bad.Validate(); err == nil {
		t.Error("oversized chunk must fail")
	}
	bad2 := Default()
	bad2.Replicas = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero replicas must fail")
	}
	s := testStore(t, 3, 0)
	if _, err := s.Put("z", 0, false); err == nil {
		t.Error("zero-size put must fail")
	}
}

func TestDelete(t *testing.T) {
	s := testStore(t, 3, 0)
	s.Put("gone", units.MB, false)
	s.Delete("gone")
	if _, ok := s.Lookup("gone"); ok {
		t.Fatal("deleted object still visible")
	}
}

// fprintfHashKey is hashKey as it was first spelled: hash/fnv fed by
// fmt.Fprintf. Placement hangs off these values, so the inline version must
// reproduce them bit for bit.
func fprintfHashKey(key string, salt int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, salt)
	return h.Sum64()
}

func TestHashKeyMatchesFprintfSpelling(t *testing.T) {
	keys := []string{"", "#", "wf/7/resize", "clinical/input.part3", "chatbot/output@b16", "naïve/ключ"}
	for _, b := range workload.Suite() {
		for _, stage := range []string{"input", "intermediate", "output"} {
			key := b.Slug + "/" + stage
			keys = append(keys, key, key+"@b8", key+"dscs-1", key+"ssd-0")
		}
	}
	salts := []int{0, 1, 2, 9, 10, 63, 1 << 20, -1, -10, math.MaxInt64, math.MinInt64}
	for _, key := range keys {
		for _, salt := range salts {
			if got, want := hashKey(key, "", salt), fprintfHashKey(key, salt); got != want {
				t.Errorf("hashKey(%q, %d) = %#x, the Fprintf spelling gives %#x", key, salt, got, want)
			}
		}
	}
}
