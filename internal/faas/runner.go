// runner.go is the invocation engine: it executes a Table 1 application on
// a chosen platform and returns the end-to-end latency breakdown and system
// energy — the machinery behind Figures 4, 9, 10, 11, 14, 15, 16, and 17.
//
// Three execution paths exist, mirroring the paper:
//
//   - Traditional (CPU, GPU, FPGA with remote storage): every function runs
//     on a compute node and moves data through the object store.
//   - Conventional near-storage (NS-ARM, NS-Mobile-GPU, NS-FPGA): f1/f2 run
//     inside the storage node with device-internal reads.
//   - DSCS-Serverless: f1/f2 run on the DSCS-Drive's DSA via the driver's
//     P2P path; chained accelerated functions keep intermediates on-drive.
//
// Function 3 (notification) always runs on a compute node (Section 6.1).
package faas

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dscs/internal/csd"
	"dscs/internal/model"
	"dscs/internal/network"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/tensor"
	"dscs/internal/units"
	"dscs/internal/workload"
)

// StackModel is the serverless system-software overhead per function
// invocation: the OpenFaaS gateway, the Kubernetes scheduler, and the
// container runtime dispatch.
type StackModel struct {
	Scheduler time.Duration
	Gateway   time.Duration
	Runtime   time.Duration
}

// DefaultStackModel returns the calibrated per-function overhead.
func DefaultStackModel() StackModel {
	return StackModel{
		Scheduler: 3 * time.Millisecond,
		Gateway:   4 * time.Millisecond,
		Runtime:   5 * time.Millisecond,
	}
}

// PerFunction is the total stack cost of one invocation.
func (s StackModel) PerFunction() time.Duration {
	return s.Scheduler + s.Gateway + s.Runtime
}

// EnergyModel prices the host-side phases.
type EnergyModel struct {
	// HostActive is the compute node's draw while running function code.
	HostActive units.Power
	// HostWait is the compute node's draw while blocked on storage I/O.
	HostWait units.Power
	// StorageNodeShare is the storage-node CPU share during driver and
	// near-storage activity.
	StorageNodeShare units.Power
}

// DefaultEnergyModel returns the c5.4xlarge-slice figures.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{HostActive: 71, HostWait: 40, StorageNodeShare: 26}
}

// Breakdown is the per-invocation latency decomposition (Figure 10's
// categories).
type Breakdown struct {
	Stack       time.Duration // framework scheduling/gateway/runtime
	RemoteRead  time.Duration // object-store reads over the network
	RemoteWrite time.Duration // object-store writes over the network
	Compute     time.Duration // function computation
	DeviceIO    time.Duration // device copies: PCIe to GPU/FPGA, P2P, local reads
	Driver      time.Duration // in-storage driver syscalls/enqueue/interrupt
	ColdStart   time.Duration // container pull + weight staging
	Notify      time.Duration // f3 egress
}

// Total is the end-to-end invocation latency.
func (b Breakdown) Total() time.Duration {
	return b.Stack + b.RemoteRead + b.RemoteWrite + b.Compute +
		b.DeviceIO + b.Driver + b.ColdStart + b.Notify
}

// Result is one invocation's outcome.
type Result struct {
	Breakdown     Breakdown
	Energy        units.Energy // end-to-end system energy
	ComputeEnergy units.Energy // device energy of f1/f2 computation only
}

// Total is the end-to-end latency.
func (r Result) Total() time.Duration { return r.Breakdown.Total() }

// Options tune one invocation.
type Options struct {
	// Batch is the request batch size (Figure 14); 0 means 1.
	Batch int
	// Cold forces a cold container start (Figure 17).
	Cold bool
	// ExtraAccelFuncs appends duplicates of f2 to the chain (Figure 16).
	ExtraAccelFuncs int
	// Quantile, when positive, evaluates every network component at that
	// percentile (Figure 15); zero or negative samples stochastically. It
	// must be below 1 (Validate).
	Quantile float64
}

// ErrQuantile rejects a network quantile of 1 or more, or NaN: the normal
// quantile is infinite there, and so would be every latency priced at it.
var ErrQuantile = errors.New("faas: quantile must be below 1 (0 or less samples the network)")

// Validate reports ErrQuantile for a quantile Invoke cannot price.
func (o Options) Validate() error {
	if o.Quantile >= 1 || math.IsNaN(o.Quantile) {
		return ErrQuantile
	}
	return nil
}

func (o Options) batch() int {
	if o.Batch < 1 {
		return 1
	}
	return o.Batch
}

// Runner executes applications for one platform over one storage setup.
//
// Invoke is safe for concurrent use: the runner's only mutable state is the
// deployed-input ledger and the plan table, both behind its own lock; the
// object store and drives serialize themselves and sample network jitter
// from per-operation RNG streams split off the seed generator
// (sim.RNG.Split), so concurrent invocations never share a generator; and
// DSA compilation results are memoized with singleflight semantics in the
// platform layer. InvokeScattered keeps the same rules. Do not mutate
// the exported model fields (Stack, Energy, Cold, Egress) while invocations
// are in flight.
type Runner struct {
	Store    *objstore.Store
	Platform platform.Compute
	Stack    StackModel
	Energy   EnergyModel
	Cold     ColdStartModel
	Egress   network.Fabric

	// mu guards put and plans, the only runner-local mutable state.
	mu sync.Mutex
	// put tracks deployed input objects: key -> size, to avoid re-puts.
	put map[string]units.Bytes
	// plans holds one resolved deployment per slug (plan.go).
	plans map[string]*plan
	// egress is Egress priced at the last quantile notify asked for, so a
	// warm invocation prices the egress fabric once per quantile.
	egress atomic.Pointer[network.Priced]
}

// NewRunner assembles a runner with default stack/energy/cold models.
func NewRunner(store *objstore.Store, p platform.Compute) *Runner {
	return &Runner{
		Store:    store,
		Platform: p,
		Stack:    DefaultStackModel(),
		Energy:   DefaultEnergyModel(),
		Cold:     DefaultColdStart(),
		Egress:   network.Egress(),
		put:      make(map[string]units.Bytes),
		plans:    make(map[string]*plan),
	}
}

// weightDType is the platform's weight precision.
func (r *Runner) weightDType() tensor.DType {
	if _, isDSA := r.Platform.(*platform.DSAPlatform); isDSA {
		return tensor.Int8
	}
	return tensor.Float32
}

// ensureInput places the request payload in the object store (request
// arrival precedes invocation and is not part of end-to-end latency).
// Concurrent misses on the same key race benignly: PutAt overwrites in
// place for an existing key of the same size.
func (r *Runner) ensureInput(key string, size units.Bytes) error {
	r.mu.Lock()
	have := r.put[key] == size
	r.mu.Unlock()
	if have {
		return nil
	}
	if _, _, err := r.Store.PutAt(key, size, true, 0.5); err != nil {
		return err
	}
	r.mu.Lock()
	r.put[key] = size
	r.mu.Unlock()
	return nil
}

// Invoke runs one end-to-end application invocation.
//
//dscslint:hotpath
func (r *Runner) Invoke(b *workload.Benchmark, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	p, err := r.planFor(b)
	if err != nil {
		return Result{}, err
	}
	batch := opt.batch()
	inputKey := p.stageKey(stageInput, batch)
	if err := r.ensureInput(inputKey, b.InputBytes*units.Bytes(batch)); err != nil {
		return Result{}, err
	}

	switch r.Platform.Class() {
	case platform.InStorageDSA:
		return r.invokeDSCS(p, opt, inputKey)
	case platform.NearStorage:
		return r.invokeNearStorage(p, opt, inputKey)
	default:
		return r.invokeTraditional(p, opt, inputKey)
	}
}

// stackCost charges one function's framework overhead.
func (r *Runner) stackCost(res *Result, nearStorage bool) {
	d := r.Stack.PerFunction()
	res.Breakdown.Stack += d
	p := r.Energy.HostActive
	if nearStorage {
		p = r.Energy.StorageNodeShare
	}
	res.Energy += p.Times(d)
}

// remoteRead charges an object-store read from a compute node.
func (r *Runner) remoteRead(res *Result, key string, q float64) error {
	lat, devEnergy, err := r.Store.GetAt(key, q)
	if err != nil {
		return err
	}
	res.Breakdown.RemoteRead += lat
	res.Energy += devEnergy + r.Energy.HostWait.Times(lat)
	return nil
}

// remoteWrite charges an object-store write from a compute node.
func (r *Runner) remoteWrite(res *Result, key string, size units.Bytes, q float64) error {
	lat, devEnergy, err := r.Store.PutAt(key, size, true, q)
	if err != nil {
		return err
	}
	res.Breakdown.RemoteWrite += lat
	res.Energy += devEnergy + r.Energy.HostWait.Times(lat)
	return nil
}

// compute charges a function's computation on the platform.
func (r *Runner) compute(res *Result, g *model.Graph, batch int) error {
	lat, energy, err := r.Platform.Infer(g, batch)
	if err != nil {
		return err
	}
	res.Breakdown.Compute += lat
	res.Energy += energy
	res.ComputeEnergy += energy
	switch r.Platform.Class() {
	case platform.NearStorage:
		// Conventional near-storage compute saturates the storage node:
		// its CPU share is charged for the whole occupancy (the paper's
		// NS platforms lose their power advantage here).
		res.Energy += r.Energy.StorageNodeShare.Times(lat)
	case platform.Traditional:
		// Host share while driving a discrete accelerator.
		if _, hasCopy := r.Platform.DeviceCopy(); hasCopy {
			res.Energy += r.Energy.HostWait.Times(lat)
		}
	}
	return nil
}

// deviceCopy charges host<->device transfers for discrete accelerators.
func (r *Runner) deviceCopy(res *Result, bytes units.Bytes) {
	link, ok := r.Platform.DeviceCopy()
	if !ok || bytes <= 0 {
		return
	}
	lat := link.TransferTime(bytes)
	res.Breakdown.DeviceIO += lat
	res.Energy += link.TransferEnergy(bytes) + r.Energy.HostWait.Times(lat)
}

// coldStart charges container cold paths when requested: the preprocessing
// function pulls a slim image; the inference function's image carries the
// model weights at the platform's precision. DSA containers are much
// slimmer: compiled executables plus the thin driver instead of a full
// Python inference runtime.
func (r *Runner) coldStart(res *Result, b *workload.Benchmark, onDrive *csd.Drive) {
	prepBase, modelBase := units.Bytes(110*units.MB), units.Bytes(130*units.MB)
	if r.weightDType() == tensor.Int8 {
		prepBase, modelBase = 22*units.MB, 30*units.MB
	}
	//dscslint:allow hotpathcheck a cold start is the requested slow path, not a warm request
	prepImg := Image{Name: b.Slug + "-prep", Base: prepBase}
	//dscslint:allow hotpathcheck a cold start is the requested slow path, not a warm request
	modelImg := ImageFor(b.Slug+"-model", b.Model, r.weightDType(), modelBase)
	cold := r.Cold.Pull(prepImg) + r.Cold.Pull(modelImg)
	if onDrive != nil {
		// DSCS stages the weights into the DSA's DRAM over P2P.
		lat, energy := onDrive.LoadWeights(b.Slug, modelImg.Weights, weightRegionOffset)
		cold += lat
		res.Energy += energy
	} else {
		cold += r.Cold.StageWeights(modelImg)
	}
	res.Breakdown.ColdStart += cold
	res.Energy += r.Energy.HostWait.Times(cold)
}

// notify charges Function 3: a small formatting computation on a compute
// node and the egress push to the notification endpoint.
func (r *Runner) notify(res *Result, b *workload.Benchmark, q float64) {
	const format = time.Millisecond
	res.Breakdown.Compute += format
	res.Energy += r.Energy.HostActive.Times(format)
	if q <= 0 {
		q = 0.5 // egress uses the median unless a tail sweep asks otherwise
	}
	pr := r.egress.Load()
	if pr == nil || !pr.Matches(r.Egress, q) {
		priced := r.Egress.At(q)
		pr = &priced
		r.egress.Store(pr)
	}
	lat := pr.Latency(b.NotifyBytes)
	res.Breakdown.Notify += lat
	res.Energy += r.Energy.HostWait.Times(lat)
}

// invokeTraditional is the remote-storage path (CPU, GPU, FPGA).
func (r *Runner) invokeTraditional(p *plan, opt Options, inputKey string) (Result, error) {
	var res Result
	b := p.bench
	batch := opt.batch()
	q := opt.Quantile
	interKey := p.stageKey(stageIntermediate, batch)
	outKey := p.stageKey(stageOutput, batch)
	interBytes := b.IntermediateBytes * units.Bytes(batch)
	outBytes := b.OutputBytes * units.Bytes(batch)

	if opt.Cold {
		r.coldStart(&res, b, nil)
	}

	// f1: preprocess.
	r.stackCost(&res, false)
	if err := r.remoteRead(&res, inputKey, q); err != nil {
		return res, err
	}
	r.deviceCopy(&res, b.InputBytes*units.Bytes(batch))
	if err := r.compute(&res, b.Preproc, batch); err != nil {
		return res, err
	}
	r.deviceCopy(&res, interBytes)
	if err := r.remoteWrite(&res, interKey, interBytes, q); err != nil {
		return res, err
	}

	// f2: inference (+ the Figure 16 duplicates).
	for i := 0; i <= opt.ExtraAccelFuncs; i++ {
		r.stackCost(&res, false)
		if err := r.remoteRead(&res, interKey, q); err != nil {
			return res, err
		}
		r.deviceCopy(&res, interBytes)
		if err := r.compute(&res, b.Model, batch); err != nil {
			return res, err
		}
		r.deviceCopy(&res, outBytes)
		key := outKey
		if i < opt.ExtraAccelFuncs {
			key = interKey // chained duplicate feeds the next stage
			if err := r.remoteWrite(&res, key, interBytes, q); err != nil {
				return res, err
			}
			continue
		}
		if err := r.remoteWrite(&res, key, outBytes, q); err != nil {
			return res, err
		}
	}

	// f3: notification.
	r.stackCost(&res, false)
	if err := r.remoteRead(&res, outKey, q); err != nil {
		return res, err
	}
	r.notify(&res, b, q)
	return res, nil
}

// localIO charges a storage-node-internal device read or write for the
// near-storage platforms.
func (r *Runner) localIO(res *Result, node *objstore.Node, offset int64, bytes units.Bytes, write bool) {
	var lat time.Duration
	var energy units.Energy
	if write {
		lat, energy = node.Drive().InternalWrite(offset, bytes)
	} else {
		lat, energy = node.Drive().InternalRead(offset, bytes)
	}
	res.Breakdown.DeviceIO += lat
	res.Energy += energy + r.Energy.StorageNodeShare.Times(lat)
}

// invokeNearStorage is the conventional in-storage path (NS-ARM,
// NS-Mobile-GPU, NS-FPGA): f1/f2 run on the storage node holding the data.
func (r *Runner) invokeNearStorage(p *plan, opt Options, inputKey string) (Result, error) {
	var res Result
	b := p.bench
	batch := opt.batch()
	q := opt.Quantile
	interBytes := b.IntermediateBytes * units.Bytes(batch)
	outBytes := b.OutputBytes * units.Bytes(batch)
	outKey := p.stageKey(stageOutput, batch)

	node, offset, ok := r.Store.DSCSReplicaHealthy(inputKey)
	if !ok {
		// Chunked across drives, no capable node, or the drive is down:
		// fall back to conventional execution (5.2).
		return r.invokeTraditional(p, opt, inputKey)
	}

	if opt.Cold {
		r.coldStart(&res, b, nil)
	}

	// f1 on the storage node.
	r.stackCost(&res, true)
	r.localIO(&res, node, offset, b.InputBytes*units.Bytes(batch), false)
	r.deviceCopy(&res, b.InputBytes*units.Bytes(batch))
	if err := r.compute(&res, b.Preproc, batch); err != nil {
		return res, err
	}
	r.deviceCopy(&res, interBytes)
	r.localIO(&res, node, scratchRegionOffset, interBytes, true)

	// f2 (+ duplicates) on the storage node.
	for i := 0; i <= opt.ExtraAccelFuncs; i++ {
		r.stackCost(&res, true)
		r.localIO(&res, node, scratchRegionOffset, interBytes, false)
		r.deviceCopy(&res, interBytes)
		if err := r.compute(&res, b.Model, batch); err != nil {
			return res, err
		}
		r.deviceCopy(&res, outBytes)
		if i < opt.ExtraAccelFuncs {
			r.localIO(&res, node, scratchRegionOffset, interBytes, true)
			continue
		}
		r.localIO(&res, node, scratchRegionOffset, outBytes, true)
	}
	if _, _, err := r.Store.PutAt(outKey, outBytes, true, 0.5); err != nil {
		return res, err
	}

	// f3 from a compute node, as always.
	r.stackCost(&res, false)
	if err := r.remoteRead(&res, outKey, q); err != nil {
		return res, err
	}
	r.notify(&res, b, q)
	return res, nil
}

// Drive-local scratch regions (logical byte offsets) used for intermediates
// and weight staging.
const (
	scratchRegionOffset = int64(1) << 42
	weightRegionOffset  = int64(1) << 43
)

// invokeDSCS is the paper's path: f1/f2 execute on the DSCS-Drive's DSA,
// chained intermediates never leave the device (Section 5.3), and only f3
// touches the network.
func (r *Runner) invokeDSCS(p *plan, opt Options, inputKey string) (Result, error) {
	var res Result
	b := p.bench
	batch := opt.batch()
	q := opt.Quantile
	outKey := p.stageKey(stageOutput, batch)
	inBytes := b.InputBytes * units.Bytes(batch)
	outBytes := b.OutputBytes * units.Bytes(batch)

	node, offset, ok := r.Store.DSCSReplicaHealthy(inputKey)
	if !ok || node.CSD == nil {
		return r.invokeTraditional(p, opt, inputKey)
	}
	drive := node.CSD

	if opt.Cold {
		r.coldStart(&res, b, drive)
	}

	// Framework overhead: every chained function is still scheduled and
	// routed by the serverless stack, on the storage node.
	accelFuncs := p.accelFuncs + opt.ExtraAccelFuncs
	for i := 0; i < accelFuncs; i++ {
		r.stackCost(&res, true)
	}

	// Evaluate the on-DSA computation: f1 (VPU preprocessing), f2, and any
	// duplicated accelerated functions; intermediates stay in DSA DRAM.
	var compute time.Duration
	var computeEnergy units.Energy
	for _, g := range chainGraphs(b, opt.ExtraAccelFuncs) {
		lat, energy, err := r.Platform.Infer(g, batch)
		if err != nil {
			return res, err
		}
		compute += lat
		computeEnergy += energy
	}
	res.ComputeEnergy += computeEnergy

	// The drive-side path: driver, P2P staging, compute, P2P write-back.
	exec := drive.RunStaged(compute, computeEnergy, offset, inBytes, outBytes)
	res.Breakdown.Driver += exec.Driver
	res.Breakdown.DeviceIO += exec.P2PRead + exec.P2PWrite
	res.Breakdown.Compute += exec.Compute
	res.Energy += exec.Energy
	res.Energy += r.Energy.StorageNodeShare.Times(exec.Driver)

	// Publish the output for f3 (metadata only; bytes are already on the
	// drive via the P2P write-back).
	if _, _, err := r.Store.PutAt(outKey, outBytes, true, 0.5); err != nil {
		return res, err
	}

	// f3 from a compute node.
	r.stackCost(&res, false)
	if err := r.remoteRead(&res, outKey, q); err != nil {
		return res, err
	}
	r.notify(&res, b, q)
	return res, nil
}

// chainGraphs returns the accelerated computation chain: preprocessing,
// inference, and the Figure 16 duplicates of f2.
func chainGraphs(b *workload.Benchmark, extras int) []*model.Graph {
	graphs := []*model.Graph{b.Preproc, b.Model}
	for i := 0; i < extras; i++ {
		graphs = append(graphs, b.Model)
	}
	return graphs
}

// DriveFor reports the DSCS-Drive an invocation of b at the given batch
// size would execute on, placing the input object first if needed exactly
// as Invoke would (placement is keyed by slug and batch). ok is false when
// the platform is not in-storage or no healthy DSCS replica holds the
// input — Invoke then falls back to conventional execution and occupies no
// drive. The serving engine uses this to acquire the right physical drive
// for the run-to-completion window.
//
//dscslint:hotpath
func (r *Runner) DriveFor(b *workload.Benchmark, batch int) (*csd.Drive, bool) {
	if r.Platform.Class() != platform.InStorageDSA {
		return nil, false
	}
	if batch < 1 {
		batch = 1
	}
	p, err := r.planFor(b)
	if err != nil {
		return nil, false
	}
	inputKey := p.stageKey(stageInput, batch)
	if err := r.ensureInput(inputKey, b.InputBytes*units.Bytes(batch)); err != nil {
		return nil, false
	}
	node, _, ok := r.Store.DSCSReplicaHealthy(inputKey)
	if !ok || node.CSD == nil {
		return nil, false
	}
	return node.CSD, true
}
