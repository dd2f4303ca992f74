// plan.go resolves a deployed benchmark once per runner: everything an
// invocation used to re-derive from the deployment YAML or rebuild by string
// formatting on every call is computed on the first call and restored from
// the runner's plan table on every later one.
package faas

import (
	"fmt"

	"dscs/internal/workload"
)

// stage indexes the objects an invocation exchanges through the store.
type stage int

const (
	stageInput stage = iota
	stageIntermediate
	stageOutput
)

var stageNames = [...]string{stageInput: "input", stageIntermediate: "intermediate", stageOutput: "output"}

// plan is one benchmark's resolved deployment. It is immutable once built,
// so it is read outside the runner's lock.
type plan struct {
	// bench is the object the plan was derived from. A plan serves only
	// that object: a different *workload.Benchmark under the same slug (a
	// redeploy) is a miss and replaces it, which keeps the table bounded by
	// the number of slugs with nothing for callers to invalidate.
	bench *workload.Benchmark
	// accelFuncs is the length of the deployment's accelerated prefix: the
	// functions the DSCS path schedules on the drive.
	accelFuncs int
	// keys are the stage keys for batches 1…plannedBatches, keys[batch-1].
	keys [plannedBatches][len(stageNames)]string
}

// plannedBatches is how many batch sizes a plan holds keys for: the serving
// engine coalesces up to serve.DefaultMaxBatch = 8, so every key it asks for
// by default is in the table. A larger caller-chosen batch formats its keys
// per invocation, which keeps the table's size fixed.
const plannedBatches = 8

// stageKey names a per-stage object. Sizes scale with the request batch,
// so batched invocations get their own keys: concurrent invocations of one
// benchmark at different batch sizes must not re-place each other's
// objects mid-flight (a same-size re-put overwrites in place, which is
// race-benign; a different-size one would re-place the object under a
// concurrent reader). Batch 1 keeps the bare key.
func (p *plan) stageKey(s stage, batch int) string {
	if batch <= plannedBatches {
		return p.keys[max(batch, 1)-1][s]
	}
	//dscslint:allow hotpathcheck only a batch past plannedBatches formats its key, amortised over that batch's members; the table stays fixed-size whatever batch sizes callers choose
	return formatStageKey(p.bench.Slug, s, batch)
}

// formatStageKey spells a stage key. Placement hashes these strings, so the
// spelling must not move.
func formatStageKey(slug string, s stage, batch int) string {
	if batch <= 1 {
		return slug + "/" + stageNames[s]
	}
	return fmt.Sprintf("%s/%s@b%d", slug, stageNames[s], batch)
}

// planFor returns b's plan, deriving it on the first call for this object.
// Concurrent misses derive the same value twice and the last one stays.
func (r *Runner) planFor(b *workload.Benchmark) (*plan, error) {
	r.mu.Lock()
	p := r.plans[b.Slug]
	r.mu.Unlock()
	if p != nil && p.bench == b {
		return p, nil
	}
	//dscslint:allow hotpathcheck the miss runs once per deployed benchmark object
	app, err := AppFor(b)
	if err != nil {
		return nil, err
	}
	p = &plan{bench: b, accelFuncs: len(app.AcceleratedPrefix())}
	for i := range p.keys {
		for s := range p.keys[i] {
			//dscslint:allow hotpathcheck the miss runs once per deployed benchmark object
			p.keys[i][s] = formatStageKey(b.Slug, stage(s), i+1)
		}
	}
	r.mu.Lock()
	r.plans[b.Slug] = p
	r.mu.Unlock()
	return p, nil
}
