package objstore

import (
	"testing"

	"dscs/internal/units"
)

func TestFailoverRead(t *testing.T) {
	s := testStore(t, 4, 2)
	if _, err := s.Put("k", 4*units.MB, false); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Lookup("k")
	primary := obj.Chunks[0].Replicas[0].NodeID

	// Healthy read works.
	healthyLat, _, err := s.GetAt("k", 0.5)
	if err != nil {
		t.Fatal(err)
	}

	// Kill one replica holder: reads still succeed, slightly slower when
	// the dead node was first in rotation.
	if err := s.FailNode(primary); err != nil {
		t.Fatal(err)
	}
	lat, _, err := s.GetAt("k", 0.5)
	if err != nil {
		t.Fatalf("read must fail over: %v", err)
	}
	if lat <= 0 || healthyLat <= 0 {
		t.Fatal("degenerate latencies")
	}

	// Kill every replica holder: the read fails.
	for _, rep := range obj.Chunks[0].Replicas {
		s.FailNode(rep.NodeID)
	}
	if _, _, err := s.GetAt("k", 0.5); err == nil {
		t.Fatal("read with all replicas down must fail")
	}

	// Recovery restores service.
	for _, rep := range obj.Chunks[0].Replicas {
		if err := s.RecoverNode(rep.NodeID); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.GetAt("k", 0.5); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestFailNodeUnknown(t *testing.T) {
	s := testStore(t, 3, 0)
	if err := s.FailNode("ghost"); err == nil {
		t.Fatal("unknown node must error")
	}
	if err := s.RecoverNode("ghost"); err == nil {
		t.Fatal("unknown node must error")
	}
}

func TestDSCSFailoverToConventional(t *testing.T) {
	s := testStore(t, 4, 2)
	if _, err := s.Put("accel", 2*units.MB, true); err != nil {
		t.Fatal(err)
	}
	node, _, ok := s.DSCSReplicaHealthy("accel")
	if !ok {
		t.Fatal("healthy DSCS replica expected")
	}
	// The drive dies: in-storage execution becomes unavailable...
	s.FailNode(node.ID)
	if _, _, ok := s.DSCSReplicaHealthy("accel"); ok {
		t.Fatal("dead DSCS node still offered")
	}
	// ...but the data is still readable from the surviving replicas.
	if _, _, err := s.GetAt("accel", 0.5); err != nil {
		t.Fatalf("conventional fallback read failed: %v", err)
	}
}

func TestReReplication(t *testing.T) {
	s := testStore(t, 4, 2)
	for _, key := range []string{"a", "b", "c"} {
		if _, err := s.Put(key, 3*units.MB, true); err != nil {
			t.Fatal(err)
		}
	}
	node, _, _ := s.DSCSReplica("a")
	s.FailNode(node.ID)

	chunks, moved, err := s.ReReplicate(node.ID)
	if err != nil {
		t.Fatal(err)
	}
	if chunks == 0 || moved == 0 {
		t.Fatal("nothing repaired despite lost replicas")
	}

	// Every object is back at full replication on healthy nodes, and
	// acceleratable objects regained a DSCS replica if one survives.
	for _, key := range []string{"a", "b", "c"} {
		obj, _ := s.Lookup(key)
		for _, chunk := range obj.Chunks {
			if len(chunk.Replicas) != 3 {
				t.Fatalf("%q: replica count %d", key, len(chunk.Replicas))
			}
			for _, rep := range chunk.Replicas {
				n, _ := s.Node(rep.NodeID)
				if !n.healthy() {
					t.Fatalf("%q still has a replica on the dead node", key)
				}
			}
		}
		if _, _, ok := s.DSCSReplicaHealthy(key); !ok {
			t.Errorf("%q lost DSCS coverage after repair", key)
		}
	}
	if s.HealthyNodes() != 5 {
		t.Fatalf("healthy nodes = %d, want 5", s.HealthyNodes())
	}
}

func TestReReplicateUnknownNode(t *testing.T) {
	s := testStore(t, 3, 0)
	if _, _, err := s.ReReplicate("ghost"); err == nil {
		t.Fatal("unknown node must error")
	}
}

// TestRepairOverFailRecoverSequences drives ReReplicate after interleaved
// FailNode/RecoverNode sequences and pins the repair-target contract:
// the chosen target is healthy and not already a holder, and a chunk
// whose every surviving replica is down is an error — not a "repair"
// fabricated from nothing (the latent bug this table caught: nothing
// checked a healthy *source* existed before copying).
func TestRepairOverFailRecoverSequences(t *testing.T) {
	type step struct {
		holder  int  // index into the chunk's replica holders; -1 = a healthy spare
		recover bool // false = fail
	}
	cases := []struct {
		name    string
		steps   []step
		repair  int // holder index handed to ReReplicate
		wantErr bool
	}{
		{"single holder lost", []step{{0, false}}, 0, false},
		{"recovered peer is a valid source", []step{{0, false}, {1, false}, {1, true}}, 0, false},
		{"dead spare never selected", []step{{0, false}, {-1, false}}, 0, false},
		{"all holders down: no source to copy from", []step{{0, false}, {1, false}, {2, false}}, 0, true},
		{"source recovered after total loss", []step{{0, false}, {1, false}, {2, false}, {1, true}}, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testStore(t, 4, 2)
			if _, err := s.Put("k", units.MB, true); err != nil {
				t.Fatal(err)
			}
			obj, _ := s.Lookup("k")
			var holders []string
			holderSet := map[string]bool{}
			for _, rep := range obj.Chunks[0].Replicas {
				holders = append(holders, rep.NodeID)
				holderSet[rep.NodeID] = true
			}
			spare := ""
			for _, id := range []string{"ssd-a", "ssd-b", "ssd-c", "ssd-d", "dscs-a", "dscs-b"} {
				if !holderSet[id] {
					spare = id
					break
				}
			}
			downSpare := false
			for _, st := range c.steps {
				id := spare
				if st.holder >= 0 {
					id = holders[st.holder]
				} else {
					downSpare = !st.recover
				}
				var err error
				if st.recover {
					err = s.RecoverNode(id)
				} else {
					err = s.FailNode(id)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			_, _, err := s.ReReplicate(holders[c.repair])
			if c.wantErr {
				if err == nil {
					t.Fatal("repair with every source replica down must error")
				}
				return
			}
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			obj, _ = s.Lookup("k")
			for _, chunk := range obj.Chunks {
				seen := map[string]bool{}
				for _, rep := range chunk.Replicas {
					if seen[rep.NodeID] {
						t.Fatalf("chunk %d repaired onto a node already holding it (%s)", chunk.Index, rep.NodeID)
					}
					seen[rep.NodeID] = true
					if rep.NodeID == holders[c.repair] {
						t.Fatalf("chunk %d still replicated on the failed node", chunk.Index)
					}
					if downSpare && rep.NodeID == spare {
						t.Fatalf("chunk %d repaired onto the dead spare %s", chunk.Index, spare)
					}
				}
			}
		})
	}
}

// TestGetAtFailsOver pins GetAt as the failover read. With the node that
// holds a chunk's hashed replica down, GetAt charges retryPenalty for it,
// reads the next replica in rotation and never touches the dead drive;
// with every replica of the chunk down it errors. The store is all plain
// drives with one identical write each, so the surviving replica reads in
// exactly the time the dead one did and the penalty shows exactly.
func TestGetAtFailsOver(t *testing.T) {
	s := testStore(t, 4, 0)
	if _, err := s.Put("k", 4*units.MB, false); err != nil {
		t.Fatal(err)
	}
	healthy, _, err := s.GetAt("k", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Lookup("k")
	reps := obj.Chunks[0].Replicas
	start := int(hashKey("k", "", 0) % uint64(len(reps)))
	hashed, next := s.byID[reps[start].NodeID], s.byID[reps[(start+1)%len(reps)].NodeID]
	if err := s.FailNode(hashed.ID); err != nil {
		t.Fatal(err)
	}
	deadReads, _, _, _ := hashed.Drive().Counters()
	nextReads, _, _, _ := next.Drive().Counters()
	lat, _, err := s.GetAt("k", 0.5)
	if err != nil {
		t.Fatalf("read must fail over: %v", err)
	}
	if r, _, _, _ := hashed.Drive().Counters(); r != deadReads {
		t.Errorf("GetAt read the dead node %s", hashed.ID)
	}
	if r, _, _, _ := next.Drive().Counters(); r != nextReads+1 {
		t.Errorf("GetAt did not read the next replica %s", next.ID)
	}
	if want := healthy + retryPenalty; lat != want {
		t.Errorf("failover read took %v, want %v (healthy %v + retry %v)", lat, want, healthy, retryPenalty)
	}

	for _, rep := range reps {
		if err := s.FailNode(rep.NodeID); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.GetAt("k", 0.5); err == nil {
		t.Fatal("read with every replica down must fail")
	}
}
