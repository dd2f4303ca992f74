// drives.go arbitrates DSCS-class executions over the physical drives.

package serve

import (
	"sync"

	"dscs/internal/csd"
	"dscs/internal/objstore"
)

// driveSet serializes DSCS-class executions over the physical DSCS-Drives:
// the engine's DSCS pool sizes workers, but the rack has a fixed number of
// drives, each run-to-completion (csd.Drive.Acquire). Holding a drive marks
// it busy, so concurrent conventional storage I/O against it pays the
// ArbitrationPenalty in live latencies — the drive-level contention the
// analytic model charges now shows up in served traffic too.
type driveSet struct {
	mu      sync.Mutex
	cond    *sync.Cond
	drives  []*csd.Drive
	ids     []string
	byDrive map[*csd.Drive]int
	closed  bool
}

// newDriveSet harvests the DSCS-Drives behind the given stores (deduped —
// pools usually share one object store).
func newDriveSet(stores []*objstore.Store) *driveSet {
	ds := &driveSet{byDrive: make(map[*csd.Drive]int)}
	ds.cond = sync.NewCond(&ds.mu)
	for _, store := range stores {
		for _, n := range store.Nodes() {
			if n.CSD == nil {
				continue
			}
			if _, seen := ds.byDrive[n.CSD]; seen {
				continue
			}
			ds.byDrive[n.CSD] = len(ds.drives)
			ds.drives = append(ds.drives, n.CSD)
			ds.ids = append(ds.ids, n.ID)
		}
	}
	return ds
}

// acquireDrive blocks until the given drive's DSA is free and returns its
// index, plus whether the caller had to wait (contention). This targets
// the specific drive the execution will run on — the one holding the input
// replica — so exclusivity and the arbitration penalty attach to the right
// device. It returns -1 for an unknown drive or when the set is closing;
// execution then proceeds unarbitrated.
func (ds *driveSet) acquireDrive(d *csd.Drive) (idx int, waited bool) {
	i, ok := ds.byDrive[d]
	if !ok {
		return -1, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for !ds.closed {
		if d.Acquire() {
			return i, waited
		}
		waited = true
		ds.cond.Wait()
	}
	return -1, waited
}

// release frees a drive and wakes every waiter: waiters target specific
// drives, so a single Signal could wake one waiting on a still-busy device
// and strand the one this release unblocks.
func (ds *driveSet) release(idx int) {
	ds.drives[idx].Release()
	ds.mu.Lock()
	ds.cond.Broadcast()
	ds.mu.Unlock()
}

// close unblocks every waiter; subsequent acquires return -1.
func (ds *driveSet) close() {
	ds.mu.Lock()
	ds.closed = true
	ds.cond.Broadcast()
	ds.mu.Unlock()
}
