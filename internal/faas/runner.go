// runner.go is the invocation engine: it executes a Table 1 application on
// a chosen platform and returns the end-to-end latency breakdown and system
// energy — the machinery behind Figures 4, 9, 10, 11, 14, 15, 16, and 17.
//
// Every invocation is one chain: f1 (preprocessing), f2 (inference) and
// its Figure 16 duplicates, then f3 (notification). The paper's execution
// models differ only in where f1/f2 run and how their data moves:
//
//   - Remote storage (CPU, GPU, FPGA): f1/f2 run on a compute node and move
//     their data through the object store by key (invokeChain).
//   - Conventional near-storage (NS-ARM, NS-Mobile-GPU, NS-FPGA): the same
//     body, but f1/f2 run on the storage node holding the input and move
//     their data through its drive by offset.
//   - DSCS-Serverless: f1/f2 run back to back on the DSCS-Drive's DSA via
//     the driver's P2P path, intermediates kept on the drive (invokeDSCS;
//     InvokeScattered spreads the chain over several drives).
//
// An in-storage platform whose input no healthy DSCS-Drive holds whole
// falls back to the remote-storage body (Section 5.2). Function 3 always
// runs on a compute node (Section 6.1), in notify, which every path ends
// with.
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
	p, inputKey, node, offset, err := r.place(b, opt.batch())
	if err != nil {
		return Result{}, err
	}
	if node != nil && r.Platform.Class() == platform.InStorageDSA {
		return r.invokeDSCS(p, opt, node.CSD, offset)
	}
	return r.invokeChain(p, opt, inputKey, node, offset)
}

// place resolves b's plan and places its input for the batch, as request
// arrival would. On an in-storage platform it also returns the healthy
// DSCS-Drive node holding the whole input, and the input's offset there.
// node is nil on a remote-storage platform, and when no such node exists
// (the input is chunked across drives, no DSCS node exists, or its drive is
// down): f1/f2 then run on a compute node.
func (r *Runner) place(b *workload.Benchmark, batch int) (p *plan, inputKey string, node *objstore.Node, offset int64, err error) {
	if p, err = r.planFor(b); err != nil {
		return nil, "", nil, 0, err
	}
	inputKey = p.stageKey(stageInput, batch)
	if err = r.ensureInput(inputKey, b.InputBytes*units.Bytes(batch)); err != nil {
		return nil, "", nil, 0, err
	}
	if r.Platform.Class() != platform.Traditional {
		node, offset, _ = r.Store.DSCSReplicaHealthy(inputKey)
	}
	return p, inputKey, node, offset, nil
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
		lat, energy := onDrive.LoadWeights(modelImg.Weights, weightRegionOffset)
		cold += lat
		res.Energy += energy
	} else {
		cold += r.Cold.StageWeights(modelImg)
	}
	res.Breakdown.ColdStart += cold
	res.Energy += r.Energy.HostWait.Times(cold)
}

// notify runs Function 3 on a compute node: read the output from the
// store, format it, and push it to the notification endpoint. When f1/f2
// left the output on a drive, publish first publishes it to the store
// (metadata only: the bytes are already on the drive, so it is not
// charged).
func (r *Runner) notify(res *Result, p *plan, batch int, publish bool, q float64) error {
	outKey := p.stageKey(stageOutput, batch)
	if publish {
		if _, _, err := r.Store.PutAt(outKey, p.bench.OutputBytes*units.Bytes(batch), true, 0.5); err != nil {
			return err
		}
	}
	r.stackCost(res, false)
	if err := r.remoteRead(res, outKey, q); err != nil {
		return err
	}
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
	lat := pr.Latency(p.bench.NotifyBytes)
	res.Breakdown.Notify += lat
	res.Energy += r.Energy.HostWait.Times(lat)
	return nil
}

// invokeChain runs f1, then f2 and its duplicates, one function at a time,
// then f3. Each function reads its input, copies it to the device,
// computes, copies the result back and writes it. With node nil the data
// moves through the store by key, from a compute node (remote storage).
// With node set it moves through node's drive by offset, on the storage
// node (conventional near-storage), and f3 publishes the output.
func (r *Runner) invokeChain(p *plan, opt Options, inputKey string, node *objstore.Node, offset int64) (Result, error) {
	var res Result
	b := p.bench
	batch := opt.batch()
	q := opt.Quantile
	interKey, outKey := p.stageKey(stageIntermediate, batch), p.stageKey(stageOutput, batch)
	n := units.Bytes(batch)
	inBytes, interBytes, outBytes := b.InputBytes*n, b.IntermediateBytes*n, b.OutputBytes*n

	if opt.Cold {
		r.coldStart(&res, b, nil)
	}
	last := 1 + opt.ExtraAccelFuncs
	for i := 0; i <= last; i++ {
		// f1 turns the input into the intermediate; each f2 reads the
		// intermediate, a duplicate writes it back for the next, and the
		// last writes the output.
		g, readKey, readOffset, readBytes, result := b.Model, interKey, scratchRegionOffset, interBytes, outBytes
		if i == 0 {
			g, readKey, readOffset, readBytes, result = b.Preproc, inputKey, offset, inBytes, interBytes
		}
		writeKey, writeBytes := interKey, interBytes
		if i == last {
			writeKey, writeBytes = outKey, outBytes
		}
		r.stackCost(&res, node != nil)
		if err := r.move(&res, node, readKey, readOffset, readBytes, false, q); err != nil {
			return res, err
		}
		r.deviceCopy(&res, readBytes)
		if err := r.compute(&res, g, batch); err != nil {
			return res, err
		}
		r.deviceCopy(&res, result)
		if err := r.move(&res, node, writeKey, scratchRegionOffset, writeBytes, true, q); err != nil {
			return res, err
		}
	}
	err := r.notify(&res, p, batch, node != nil, q)
	return res, err
}

// move charges one f1/f2 read or write: through the store by key from a
// compute node, or, with node set, through node's drive by offset on the
// storage node.
func (r *Runner) move(res *Result, node *objstore.Node, key string, offset int64, bytes units.Bytes, write bool, q float64) error {
	if node == nil {
		if !write {
			return r.remoteRead(res, key, q)
		}
		lat, devEnergy, err := r.Store.PutAt(key, bytes, true, q)
		if err != nil {
			return err
		}
		res.Breakdown.RemoteWrite += lat
		res.Energy += devEnergy + r.Energy.HostWait.Times(lat)
		return nil
	}
	var lat time.Duration
	var energy units.Energy
	if write {
		lat, energy = node.Drive().InternalWrite(offset, bytes)
	} else {
		lat, energy = node.Drive().InternalRead(offset, bytes)
	}
	res.Breakdown.DeviceIO += lat
	res.Energy += energy + r.Energy.StorageNodeShare.Times(lat)
	return nil
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
func (r *Runner) invokeDSCS(p *plan, opt Options, drive *csd.Drive, offset int64) (Result, error) {
	var res Result
	batch := opt.batch()
	if opt.Cold {
		r.coldStart(&res, p.bench, drive)
	}
	compute, computeEnergy, err := r.accelChain(&res, p, opt, batch)
	if err != nil {
		return res, err
	}
	res.ComputeEnergy += computeEnergy

	// The drive-side path: driver, P2P staging, compute, P2P write-back.
	n := units.Bytes(batch)
	exec := drive.RunStaged(compute, computeEnergy, offset, p.bench.InputBytes*n, p.bench.OutputBytes*n)
	res.Breakdown.Driver += exec.Driver
	res.Breakdown.DeviceIO += exec.P2PRead + exec.P2PWrite
	res.Breakdown.Compute += exec.Compute
	res.Energy += exec.Energy
	res.Energy += r.Energy.StorageNodeShare.Times(exec.Driver)
	err = r.notify(&res, p, batch, true, opt.Quantile)
	return res, err
}

// accelChain charges the serverless stack for every function of the
// accelerated chain, each still scheduled and routed, on the storage node.
// It returns the chain's on-DSA time and energy at batch: f1 on the VPU, f2
// and its duplicates, intermediates kept in DSA DRAM.
func (r *Runner) accelChain(res *Result, p *plan, opt Options, batch int) (lat time.Duration, energy units.Energy, err error) {
	for i := 0; i < p.accelFuncs+opt.ExtraAccelFuncs; i++ {
		r.stackCost(res, true)
	}
	for i := 0; i < 2+opt.ExtraAccelFuncs; i++ {
		g := p.bench.Model
		if i == 0 {
			g = p.bench.Preproc
		}
		l, e, err := r.Platform.Infer(g, batch)
		if err != nil {
			return 0, 0, err
		}
		lat += l
		energy += e
	}
	return lat, energy, nil
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
	_, _, node, _, err := r.place(b, max(batch, 1))
	if err != nil || node == nil {
		return nil, false
	}
	return node.CSD, true
}
