// scatter.go implements the paper's multi-CSD execution option
// (Section 5.2): when a request's data is partitioned across several
// DSCS-Drives — or deliberately scattered for parallelism — the scheduler
// launches the accelerated chain on every drive holding a partition and
// gathers the results. Partitions that hash to the same drive serialize on
// it (run-to-completion, one DSA per drive).
package faas

import (
	"fmt"
	"time"

	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/units"
	"dscs/internal/workload"
)

// InvokeScattered executes one invocation with its batch partitioned across
// up to parts DSCS-Drives. It requires the DSCS platform; parts <= 1
// degrades to Invoke.
func (r *Runner) InvokeScattered(b *workload.Benchmark, opt Options, parts int) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if r.Platform.Class() != platform.InStorageDSA {
		return Result{}, fmt.Errorf("faas: scatter requires the DSCS platform, have %s", r.Platform.Name())
	}
	if parts <= 1 {
		return r.Invoke(b, opt)
	}
	batch := opt.batch()
	if batch < parts {
		return Result{}, fmt.Errorf("faas: cannot scatter batch %d across %d partitions", batch, parts)
	}

	p, err := r.planFor(b)
	if err != nil {
		return Result{}, err
	}
	var res Result

	// Partition the request: each partition is its own object, placed by
	// the store's DSCS-aware rule (arrival is out of band, not charged) and
	// keyed by the partition's batch, which sizes it, so scatters of
	// different shapes never re-place each other's partitions. Partitions
	// are grouped by the drive holding them, drives kept in first-placement
	// order so the float sums below repeat run to run.
	partBatch := (batch + parts - 1) / parts
	partIn := b.InputBytes * units.Bytes(partBatch)
	partOut := b.OutputBytes * units.Bytes(partBatch)
	type driveParts struct {
		node    *objstore.Node
		offsets []int64
	}
	var drives []driveParts
	inputKey := p.stageKey(stageInput, partBatch)
	for i := 0; i < parts; i++ {
		key := fmt.Sprintf("%s.part%d", inputKey, i)
		if err := r.ensureInput(key, partIn); err != nil {
			return res, err
		}
		node, offset, ok := r.Store.DSCSReplicaHealthy(key)
		if !ok || node.CSD == nil {
			return Result{}, fmt.Errorf("faas: partition %d has no healthy DSCS replica", i)
		}
		d := 0
		for d < len(drives) && drives[d].node != node {
			d++
		}
		if d == len(drives) {
			drives = append(drives, driveParts{node: node})
		}
		drives[d].offsets = append(drives[d].offsets, offset)
	}

	// The chain is scheduled once, as on one drive, and priced at the
	// partition's batch; the scheduler adds a per-partition coordination
	// cost.
	partCompute, partComputeEnergy, err := r.accelChain(&res, p, opt, partBatch)
	if err != nil {
		return res, err
	}
	coord := time.Duration(parts) * time.Millisecond
	res.Breakdown.Stack += coord
	res.Energy += r.Energy.StorageNodeShare.Times(coord)

	// Each drive serializes its partitions; drives run in parallel, so the
	// device phase is the slowest drive's sum.
	var slowest time.Duration
	for _, d := range drives {
		var driveTotal time.Duration
		for _, offset := range d.offsets {
			exec := d.node.CSD.RunStaged(partCompute, partComputeEnergy, offset, partIn, partOut)
			driveTotal += exec.Total()
			res.Energy += exec.Energy
			res.ComputeEnergy += partComputeEnergy
			res.Breakdown.Driver += exec.Driver
		}
		if driveTotal > slowest {
			slowest = driveTotal
		}
	}
	// Attribute the parallel phase: compute vs staging split proportional
	// to one partition's profile.
	res.Breakdown.Compute += slowest - res.Breakdown.Driver
	if res.Breakdown.Compute < 0 {
		res.Breakdown.Compute = 0
	}

	// Gather: publish the combined output under the batch's own key, as
	// Invoke does, then f3 as usual.
	err = r.notify(&res, p, batch, true, opt.Quantile)
	return res, err
}
