// Package flow is the distributed stream-processing substrate standing in
// for Apache Flink (Challenge I, Section 1): a pipelined dataflow of
// stages, each split into parallel subtasks connected by a pluggable
// Transport (bounded in-process channels by default).
//
// The engine reproduces the Flink semantics the paper's algorithms rely on:
//
//   - keyed exchange: records are routed by stable key groups — keyGroup =
//     hash(key) % MaxParallelism, each subtask owning a contiguous group
//     range — so all records with one key (grid cell, snapshot tick,
//     trajectory id) reach the same subtask, and the key→group mapping is
//     independent of parallelism (see keygroup.go: the rescale invariant);
//   - pipelined transfer: bounded endpoints give low latency and natural
//     backpressure; hot edges can additionally coalesce records into Batch
//     carriers (sealed by size and on watermark) to amortize the per-record
//     exchange overhead without giving up watermark semantics;
//   - event-time watermarks: subtasks merge per-sender watermarks and
//     deliver a monotone low-water mark to the operator, which lets keyed
//     stateful operators restore tick order after a parallel stage;
//   - cluster simulation: a global slot semaphore caps concurrent operator
//     execution at nodes x slotsPerNode, modelling the paper's N-node
//     scaling experiments (Figure 14) on a single machine.
//
// The package is deliberately free of operator logic: operators live under
// internal/ops, pipelines are declared in internal/topology, and the
// Transport interface isolates everything above it from the exchange
// mechanism, so a future multi-process backend only replaces Endpoints.
package flow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// Operator is the user logic of one subtask. The runtime guarantees that
// Process, OnWatermark and Close are never called concurrently for one
// operator instance.
type Operator interface {
	// Process handles one data record. Batches are unpacked by the runtime:
	// Process always receives individual records.
	Process(data any, out *Collector)
	// OnWatermark is invoked when the merged (minimum across senders)
	// watermark advances; all future records from upstream carry ticks
	// strictly greater than wm.
	OnWatermark(wm model.Tick, out *Collector)
	// Close is invoked once all upstream senders have finished; the
	// operator flushes its state.
	Close(out *Collector)
}

// BaseOperator provides no-op OnWatermark/Close so simple operators only
// implement Process.
type BaseOperator struct{}

// OnWatermark implements Operator.
func (BaseOperator) OnWatermark(model.Tick, *Collector) {}

// Close implements Operator.
func (BaseOperator) Close(*Collector) {}

// StageSpec describes one pipeline stage.
type StageSpec struct {
	// Name labels the stage in diagnostics.
	Name string
	// Parallelism is the number of subtasks (>= 1).
	Parallelism int
	// Make constructs the operator for one subtask.
	Make func(subtask int) Operator
	// BufSize is the per-subtask input endpoint capacity (default 128).
	BufSize int
	// OutBatch enables batched keyed exchange on this stage's output edge:
	// emitted records are coalesced into Batch carriers of up to OutBatch
	// items, sealed when full and on every watermark. Values <= 1 ship
	// record-at-a-time. Ignored on the last stage (sink delivery is direct).
	OutBatch int
}

// Pipeline is a linear dataflow of stages.
type Pipeline struct {
	stages  []StageSpec
	maxPar  int          // key-group count; routing is hash(key) % maxPar
	inputs  [][]Endpoint // inputs[i][s]: input of stage i subtask s
	wgs     []*sync.WaitGroup
	local   []bool    // local[i]: stage i's subtasks run in this process
	recs    []int64   // per-stage processed record counters (atomic)
	batches []int64   // per-stage processed Batch carrier counters (atomic)
	busy    []int64   // per-stage operator time in nanoseconds (atomic)
	busySub [][]int64 // busySub[i][s]: per-subtask operator time in nanoseconds (atomic)

	closeWG sync.WaitGroup // outstanding close-propagation goroutines

	slots chan struct{} // nil = unbounded (no cluster simulation)

	sinkMu     sync.Mutex
	sinkFn     func(any)
	sinkWMFn   func(model.Tick)
	sinkWMs    map[int]model.Tick
	sinkLow    model.Tick
	sinkAligns []*sinkAlign // in-flight barrier alignments at the sink

	onCkpt    func(id uint64, stage, subtask int, state []byte, err error)
	sinkBarFn func(id uint64)
	restoreFn func(stage, subtask int) []byte

	async   bool           // defer blob assembly + ack off the barrier handler
	snapWG  sync.WaitGroup // outstanding async snapshot completions
	ckstats *metrics.CheckpointStats

	started bool
}

// Config bundles pipeline-level options.
type Config struct {
	// Slots caps concurrently executing operators (nodes x slots-per-node);
	// 0 means unbounded.
	Slots int
	// MaxParallelism is the key-group count: every keyed exchange routes by
	// keyGroup = hash(key) % MaxParallelism, and each subtask owns the
	// contiguous group range KeyGroupRange(max, parallelism, subtask). It
	// bounds every stage's parallelism and fixes the key→group mapping, so
	// two runs with equal MaxParallelism bucket state identically regardless
	// of parallelism (the rescale-from-checkpoint invariant). 0 uses
	// DefaultMaxParallelism. All processes of one job must agree on it.
	MaxParallelism int
	// Sink receives records emitted by the last stage (serialized).
	Sink func(any)
	// SinkWatermark receives the merged watermark of the last stage.
	SinkWatermark func(model.Tick)
	// Transport supplies the exchange fabric (nil = in-process Channels).
	Transport Transport
	// Local reports whether stage i's subtasks execute in this process
	// (nil = every stage). Non-local stages get no goroutines; their input
	// endpoints are expected to be remote senders supplied by the
	// Transport, and closing them across the process boundary is the
	// transport's job (end-of-stream propagation).
	Local func(stage int) bool
	// OnCheckpointState receives one subtask's state snapshot when it
	// completes barrier alignment for checkpoint id. state is nil for
	// operators without a SnapshotState method; err reports a snapshot
	// failure (the checkpoint coordinator aborts that checkpoint id). With
	// AsyncSnapshots off it is called before the barrier is forwarded
	// downstream; with it on, blob assembly and this callback run on a
	// background goroutine and may fire after the barrier (and even after
	// later barriers) have been forwarded. Called from subtask or snapshot
	// goroutines; implementations must be safe for concurrent use.
	OnCheckpointState func(id uint64, stage, subtask int, state []byte, err error)
	// AsyncSnapshots moves state-blob assembly and the OnCheckpointState
	// ack off the barrier handler: the operator's state is still captured
	// synchronously at the aligned cut (operators are never touched
	// concurrently), but encoding and acking happen on a background
	// goroutine so the subtask resumes processing immediately. The
	// checkpoint becomes durable — and the coordinator commits it — only
	// when every deferred ack lands, which the exactly-once sink cut
	// already waits for.
	AsyncSnapshots bool
	// Stats, when non-nil, accrues checkpoint observability counters
	// (capture vs. encode time, bytes per cut).
	Stats *metrics.CheckpointStats
	// SinkBarrier is invoked once per checkpoint id after every last-stage
	// subtask has forwarded its barrier to the sink — i.e. when all sink
	// records of the checkpoint's stream prefix have been delivered. The
	// driver uses it as the output-commit cut for exactly-once sinks.
	SinkBarrier func(id uint64)
	// Restore supplies a subtask's checkpointed state, applied via the
	// operator's RestoreState method before any input is processed (nil
	// function or nil/empty blob = fresh start).
	Restore func(stage, subtask int) []byte
}

// NewPipeline builds a pipeline; Start must be called before Submit.
func NewPipeline(cfg Config, stages ...StageSpec) *Pipeline {
	if len(stages) == 0 {
		panic("flow: pipeline needs at least one stage")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = Channels()
	}
	maxPar := cfg.MaxParallelism
	if maxPar <= 0 {
		maxPar = DefaultMaxParallelism
	}
	p := &Pipeline{
		stages:    stages,
		maxPar:    maxPar,
		recs:      make([]int64, len(stages)),
		batches:   make([]int64, len(stages)),
		busy:      make([]int64, len(stages)),
		sinkFn:    cfg.Sink,
		sinkWMs:   make(map[int]model.Tick),
		sinkLow:   minWM,
		onCkpt:    cfg.OnCheckpointState,
		sinkBarFn: cfg.SinkBarrier,
		restoreFn: cfg.Restore,
		async:     cfg.AsyncSnapshots,
		ckstats:   cfg.Stats,
	}
	p.local = make([]bool, len(stages))
	for i := range p.local {
		p.local[i] = cfg.Local == nil || cfg.Local(i)
	}
	p.sinkWMFn = cfg.SinkWatermark
	if cfg.Slots > 0 {
		p.slots = make(chan struct{}, cfg.Slots)
	}
	for _, st := range stages {
		if st.Parallelism < 1 {
			panic(fmt.Sprintf("flow: stage %q parallelism %d", st.Name, st.Parallelism))
		}
		if st.Parallelism > maxPar {
			panic(fmt.Sprintf("flow: stage %q parallelism %d exceeds max parallelism %d",
				st.Name, st.Parallelism, maxPar))
		}
		buf := st.BufSize
		if buf <= 0 {
			buf = 128
		}
		p.inputs = append(p.inputs, tr.Edge(st.Name, st.Parallelism, buf))
		p.wgs = append(p.wgs, &sync.WaitGroup{})
		p.busySub = append(p.busySub, make([]int64, st.Parallelism))
	}
	return p
}

// Start launches all subtasks and the inter-stage close propagation.
func (p *Pipeline) Start() {
	if p.started {
		panic("flow: pipeline already started")
	}
	p.started = true
	for i, st := range p.stages {
		if !p.local[i] {
			continue
		}
		var next []Endpoint
		if i+1 < len(p.stages) {
			next = p.inputs[i+1]
		}
		// senders = number of upstream subtasks (1 source for stage 0).
		senders := 1
		if i > 0 {
			senders = p.stages[i-1].Parallelism
		}
		for s := 0; s < st.Parallelism; s++ {
			p.wgs[i].Add(1)
			go p.runSubtask(i, s, senders, st.Make(s), next)
		}
	}
	// Close propagation: when stage i finishes, close stage i+1 inputs.
	// Only local stages propagate — when stage i runs in another process,
	// the transport delivers its end-of-stream and closes our endpoints.
	for i := 0; i+1 < len(p.stages); i++ {
		if !p.local[i] {
			continue
		}
		p.closeWG.Add(1)
		go func(i int) {
			defer p.closeWG.Done()
			p.wgs[i].Wait()
			for _, ep := range p.inputs[i+1] {
				ep.Close()
			}
		}(i)
	}
}

const minWM = model.Tick(-1 << 62)

// snapshotter/restorer are the structural forms of ckpt.Snapshotter,
// type-asserted here so the runtime stays free of subsystem imports.
type snapshotter interface {
	SnapshotState() ([]byte, error)
}

type restorer interface {
	RestoreState(data []byte) error
}

// groupSnapshotter/groupRestorer are the structural forms of
// ckpt.GroupSnapshotter: keyed operators emit their state bucketed by key
// group (group(key) is the pipeline's key→group mapping) and restore by
// merging any number of group buckets — the contract that makes their
// checkpoints re-shardable across a parallelism change.
type groupSnapshotter interface {
	SnapshotGroups(group func(key uint64) int) (map[int][]byte, error)
}

type groupRestorer interface {
	RestoreGroup(data []byte) error
}

// groupCapturer is the structural form of ckpt.DeltaSnapshotter: operators
// that track per-routing-key dirtiness can cut incremental checkpoints.
// CaptureGroups runs synchronously inside the barrier handler (the runtime
// never reads operator state concurrently); with delta set it returns only
// the key groups dirtied since the completed base checkpoint, plus the
// groups whose state became empty (tombstones). With delta unset it
// returns the full state, exactly like SnapshotGroups. The returned frames
// must not alias mutable operator state: blob assembly may happen on a
// background goroutine after the operator resumes processing.
type groupCapturer interface {
	CaptureGroups(group func(key uint64) int, id, base uint64, delta bool) (frames map[int][]byte, dropped []int, err error)
}

// keyGroupOf is the pipeline's key→group mapping, handed to group
// snapshotters so their buckets match the exchange routing exactly.
func (p *Pipeline) keyGroupOf(key uint64) int { return KeyGroup(key, p.maxPar) }

// route maps a routing key to the owning subtask among n: the key's group,
// then the group's owner at parallelism n.
func (p *Pipeline) route(key uint64, n int) int {
	return SubtaskForGroup(KeyGroup(key, p.maxPar), p.maxPar, n)
}

// captureOp captures one operator's state at an aligned barrier and
// returns a closure that assembles the self-describing blob: group-framed
// for key-group snapshotters, delta-framed for capturers in delta mode,
// raw for plain snapshotters, nil for stateless operators. The split is
// what makes snapshots asynchronous: the capture (the only part touching
// operator state) runs synchronously in the barrier handler, while the
// returned closure only copies already-captured bytes and may run on a
// background goroutine.
//
// In a delta cut, absence of a blob means "unchanged since the base", so
// operators without delta support — which re-emit their full state every
// cut — must make emptiness explicit: their nil blobs become tag-only
// blobs that chain replay treats as a wholesale replace with empty state.
func (p *Pipeline) captureOp(op Operator, id, base uint64, delta bool) (func() []byte, error) {
	switch s := op.(type) {
	case groupCapturer:
		frames, dropped, err := s.CaptureGroups(p.keyGroupOf, id, base, delta)
		if err != nil {
			return nil, err
		}
		if delta {
			return func() []byte { return EncodeGroupDeltas(frames, dropped) }, nil
		}
		return func() []byte { return EncodeGroupStates(frames) }, nil
	case groupSnapshotter:
		groups, err := s.SnapshotGroups(p.keyGroupOf)
		if err != nil {
			return nil, err
		}
		return func() []byte {
			b := EncodeGroupStates(groups)
			if b == nil && delta {
				b = []byte{StateGroups}
			}
			return b
		}, nil
	case snapshotter:
		raw, err := s.SnapshotState()
		if err != nil {
			return nil, err
		}
		return func() []byte {
			b := EncodeRawState(raw)
			if b == nil && delta {
				b = []byte{StateRaw}
			}
			return b
		}, nil
	default:
		return nil, nil
	}
}

// restoreOp applies one checkpointed blob to a freshly built operator,
// dispatching on the blob's format tag. A group-framed blob may hold any
// set of key groups (restore after a rescale merges groups from several
// old subtasks); each is applied via RestoreGroup.
func (p *Pipeline) restoreOp(stage, subtask int, op Operator, blob []byte) {
	name := p.stages[stage].Name
	switch blob[0] {
	case StateGroups:
		gr, ok := op.(groupRestorer)
		if !ok {
			panic(fmt.Sprintf("flow: stage %q has key-group state but its operator is no GroupSnapshotter", name))
		}
		groups, err := DecodeGroupStates(blob)
		if err != nil {
			panic(fmt.Sprintf("flow: stage %q subtask %d restore: %v", name, subtask, err))
		}
		for _, g := range groups {
			if err := gr.RestoreGroup(g.Data); err != nil {
				panic(fmt.Sprintf("flow: stage %q subtask %d restore group %d: %v", name, subtask, g.Group, err))
			}
		}
	case StateRaw:
		r, ok := op.(restorer)
		if !ok {
			panic(fmt.Sprintf("flow: stage %q has checkpointed state but its operator is no Snapshotter", name))
		}
		if err := r.RestoreState(blob[1:]); err != nil {
			panic(fmt.Sprintf("flow: stage %q subtask %d restore: %v", name, subtask, err))
		}
	default:
		panic(fmt.Sprintf("flow: stage %q subtask %d: unknown state format %d", name, subtask, blob[0]))
	}
}

// alignState tracks one in-flight barrier at a subtask: which senders have
// delivered it, and the post-barrier input from those senders that must be
// held back until the cut is complete. Several barriers can be in flight
// at once (the source keeps injecting on its interval while earlier
// barriers still propagate); alignments then form a queue, ordered by
// first arrival — which every sender agrees on, because senders emit
// barriers in injection order and edges are FIFO. Only the head of the
// queue can complete: all senders passing barrier k implies all passed
// k-1 first.
type alignState struct {
	id      uint64
	base    uint64 // base checkpoint id when delta is set
	delta   bool   // incremental cut: capture only state dirtied since base
	arrived []bool
	n       int
	held    []Message
}

// runSubtask is the subtask main loop.
func (p *Pipeline) runSubtask(stage, subtask, senders int, op Operator, next []Endpoint) {
	defer p.wgs[stage].Done()
	out := newCollector(p, subtask, next, p.stages[stage].OutBatch)
	if p.restoreFn != nil {
		if blob := p.restoreFn(stage, subtask); len(blob) > 0 {
			p.restoreOp(stage, subtask, op, blob)
		}
	}
	wms := make([]model.Tick, senders)
	for i := range wms {
		wms[i] = minWM
	}
	merged := minWM
	in := p.inputs[stage][subtask]

	// handle processes one data or watermark message (barriers are handled
	// by the alignment logic in the main loop).
	handle := func(ev Message) {
		p.acquire()
		t0 := time.Now()
		switch {
		case ev.IsWM:
			if ev.From >= 0 && ev.From < senders && ev.WM > wms[ev.From] {
				wms[ev.From] = ev.WM
			}
			low := wms[0]
			for _, w := range wms[1:] {
				if w < low {
					low = w
				}
			}
			if low > merged {
				merged = low
				op.OnWatermark(merged, out)
				out.Watermark(merged)
			}
		default:
			if b, isBatch := ev.Data.(Batch); isBatch {
				atomic.AddInt64(&p.recs[stage], int64(len(b.Items)))
				atomic.AddInt64(&p.batches[stage], 1)
				for _, item := range b.Items {
					op.Process(item, out)
				}
			} else {
				atomic.AddInt64(&p.recs[stage], 1)
				op.Process(ev.Data, out)
			}
		}
		d := int64(time.Since(t0))
		atomic.AddInt64(&p.busy[stage], d)
		atomic.AddInt64(&p.busySub[stage][subtask], d)
		p.release()
		out.flush()
	}

	// complete captures the operator's state at the aligned cut, forwards
	// the barrier, and replays the input held back during alignment. The
	// ack (blob assembly + OnCheckpointState) runs inline before the
	// barrier in sync mode, or on a background goroutine in async mode so
	// the subtask resumes the hot path immediately after the capture.
	complete := func(a *alignState) {
		p.acquire()
		t0 := time.Now()
		assemble, err := p.captureOp(op, a.id, a.base, a.delta)
		p.ckstats.AddCapture(time.Since(t0))
		p.release()
		ack := func() {
			var state []byte
			if err == nil && assemble != nil {
				t1 := time.Now()
				state = assemble()
				p.ckstats.AddEncode(time.Since(t1), len(state))
			}
			if p.onCkpt != nil {
				p.onCkpt(a.id, stage, subtask, state, err)
			}
		}
		if p.async {
			p.snapWG.Add(1)
			go func() {
				defer p.snapWG.Done()
				ack()
			}()
		} else {
			ack()
		}
		out.Barrier(a.id, a.base, a.delta)
		out.flush()
		for _, h := range a.held {
			handle(h)
		}
	}

	var aligns []*alignState // in-flight barriers, oldest first
	for {
		ev, ok := in.Recv()
		if !ok {
			break
		}
		if ev.IsBarrier {
			var a *alignState
			for _, x := range aligns {
				if x.id == ev.CP {
					a = x
					break
				}
			}
			if a == nil {
				a = &alignState{id: ev.CP, base: ev.CPBase, delta: ev.CPDelta, arrived: make([]bool, senders)}
				aligns = append(aligns, a)
			}
			if ev.From >= 0 && ev.From < senders && !a.arrived[ev.From] {
				a.arrived[ev.From] = true
				a.n++
			}
			for len(aligns) > 0 && aligns[0].n == senders {
				head := aligns[0]
				aligns = aligns[1:]
				complete(head)
			}
			continue
		}
		// Hold input from senders that already passed a pending barrier, in
		// the deepest such alignment (per-sender FIFO: a sender's records
		// after its k-th barrier belong behind cut k).
		held := false
		for i := len(aligns) - 1; i >= 0; i-- {
			if ev.From >= 0 && ev.From < senders && aligns[i].arrived[ev.From] {
				aligns[i].held = append(aligns[i].held, ev)
				held = true
				break
			}
		}
		if !held {
			handle(ev)
		}
	}
	// Stream ended mid-alignment (those checkpoints can never complete);
	// release all held input in cut order so no record is lost.
	for _, a := range aligns {
		for _, h := range a.held {
			handle(h)
		}
	}
	p.acquire()
	op.Close(out)
	p.release()
	out.sealAll()
	out.flush()
}

func (p *Pipeline) acquire() {
	if p.slots != nil {
		p.slots <- struct{}{}
	}
}

func (p *Pipeline) release() {
	if p.slots != nil {
		<-p.slots
	}
}

// Submit feeds one record into stage 0, routed by key group.
func (p *Pipeline) Submit(key uint64, data any) {
	eps := p.inputs[0]
	eps[p.route(key, len(eps))].Send(Message{From: 0, Data: data})
}

// SubmitBatch feeds records into one stage-0 subtask as a single Batch
// carrier, which the runtime unpacks in order. The caller routes: every
// item must be one that Submit would send to that subtask.
func (p *Pipeline) SubmitBatch(subtask int, items []any) {
	p.inputs[0][subtask].Send(Message{From: 0, Data: Batch{Items: items}})
}

// SubmitAll feeds one record to every stage-0 subtask.
func (p *Pipeline) SubmitAll(data any) {
	for _, ep := range p.inputs[0] {
		ep.Send(Message{From: 0, Data: data})
	}
}

// SubmitWatermark broadcasts a source watermark to stage 0.
func (p *Pipeline) SubmitWatermark(wm model.Tick) {
	for _, ep := range p.inputs[0] {
		ep.Send(Message{From: 0, WM: wm, IsWM: true})
	}
}

// SubmitBarrier injects the barrier for checkpoint id at the source,
// broadcast to every stage-0 subtask. The records submitted before it form
// the checkpoint's stream prefix; the driver must record the matching
// replayable source position before calling (see internal/ckpt).
func (p *Pipeline) SubmitBarrier(id uint64) {
	for _, ep := range p.inputs[0] {
		ep.Send(Message{From: 0, CP: id, IsBarrier: true})
	}
}

// SubmitBarrierDelta injects an incremental barrier: operators capture
// only state dirtied since the completed base checkpoint. The driver must
// guarantee base is durable and was taken by this pipeline incarnation
// (delta chains never span restarts), so every operator still holds the
// dirtiness watermark for it.
func (p *Pipeline) SubmitBarrierDelta(id, base uint64) {
	for _, ep := range p.inputs[0] {
		ep.Send(Message{From: 0, CP: id, CPBase: base, CPDelta: true, IsBarrier: true})
	}
}

// Drain closes the source and blocks until every local stage has flushed.
// When the last stage runs in another process (distributed mode), Drain
// returns once the local share is done; the driver must additionally wait
// for the remote completion signal (see internal/transport/tcpnet).
func (p *Pipeline) Drain() {
	for _, ep := range p.inputs[0] {
		ep.Close()
	}
	p.WaitLocal()
}

// WaitLocal blocks until every locally executing subtask has finished and
// all local close propagation (including end-of-stream emission on
// outbound remote edges) has run. Worker processes call this to find out
// when their share of a distributed run is complete.
func (p *Pipeline) WaitLocal() {
	for i := range p.stages {
		if p.local[i] {
			p.wgs[i].Wait()
		}
	}
	p.closeWG.Wait()
	p.snapWG.Wait() // deferred async acks; no-op in sync mode
}

// StageNames returns the stage names in pipeline order.
func (p *Pipeline) StageNames() []string {
	names := make([]string, len(p.stages))
	for i, st := range p.stages {
		names[i] = st.Name
	}
	return names
}

// StageRecords returns a snapshot of per-stage processed record counts
// (records delivered to Process, batches unpacked). Non-local stages stay
// at zero in this process.
func (p *Pipeline) StageRecords() []int64 {
	out := make([]int64, len(p.recs))
	for i := range out {
		out[i] = atomic.LoadInt64(&p.recs[i])
	}
	return out
}

// StageBatches returns a snapshot of per-stage processed Batch-carrier
// counts (records shipped record-at-a-time don't count). Together with
// StageRecords it yields the effective batching factor per stage.
func (p *Pipeline) StageBatches() []int64 {
	out := make([]int64, len(p.batches))
	for i := range out {
		out[i] = atomic.LoadInt64(&p.batches[i])
	}
	return out
}

// StageBusy returns per-stage cumulative operator time: the wall time
// subtasks spent inside Process/OnWatermark, summed across the stage's
// subtasks (a stage with p busy subtasks accrues p seconds per second).
// Queue waits and downstream flushes are excluded, so the numbers compare
// how much work each stage did, not how long it sat. Non-local stages stay
// at zero in this process.
func (p *Pipeline) StageBusy() []time.Duration {
	out := make([]time.Duration, len(p.busy))
	for i := range out {
		out[i] = time.Duration(atomic.LoadInt64(&p.busy[i]))
	}
	return out
}

// StageSubtaskBusy returns one stage's cumulative operator time split by
// subtask. The maximum entry is the stage's serial critical path — the
// busiest shard's processing time, which bounds the stage's throughput no
// matter how subtasks interleave on cores — so it measures sharding
// benefit even when wall clock cannot (e.g. a single-core host).
func (p *Pipeline) StageSubtaskBusy(stage int) []time.Duration {
	out := make([]time.Duration, len(p.busySub[stage]))
	for s := range out {
		out[s] = time.Duration(atomic.LoadInt64(&p.busySub[stage][s]))
	}
	return out
}

// EdgeStat is one input endpoint's queue occupancy and backpressure
// reading: the buffered depth and capacity right now, plus the cumulative
// count of Send calls that found the buffer full and blocked.
type EdgeStat struct {
	Stage      string
	Subtask    int
	Depth      int
	Capacity   int
	SendBlocks int64
}

// EdgeStats samples every input endpoint that can report queue statistics
// (see QueueStats); endpoints without the capability — remote send stubs —
// are skipped, so in distributed mode each process reports exactly the
// edges it receives on. This is the raw backpressure signal the
// observability layer exports per edge.
func (p *Pipeline) EdgeStats() []EdgeStat {
	var out []EdgeStat
	for i, eps := range p.inputs {
		for s, ep := range eps {
			qs, ok := ep.(QueueStats)
			if !ok {
				continue
			}
			depth, capacity := qs.QueueDepth()
			out = append(out, EdgeStat{
				Stage:      p.stages[i].Name,
				Subtask:    s,
				Depth:      depth,
				Capacity:   capacity,
				SendBlocks: qs.SendBlocks(),
			})
		}
	}
	return out
}

// WireStat is one outbound remote edge's cumulative wire traffic (see
// WireStats): total bytes written, write syscalls, and frames encoded.
// Frames/Flushes is the coalescing factor the transport achieved.
type WireStat struct {
	Stage   string
	Bytes   int64
	Flushes int64
	Frames  int64
}

// WireStats samples every remote input edge that reports wire statistics.
// All subtask endpoints of one edge share the underlying connection and
// report identical totals, so only the first endpoint per stage is read —
// the result is per-edge, not per-subtask.
func (p *Pipeline) WireStats() []WireStat {
	var out []WireStat
	for i, eps := range p.inputs {
		if len(eps) == 0 {
			continue
		}
		ws, ok := eps[0].(WireStats)
		if !ok {
			continue
		}
		bytes, flushes, frames := ws.WireStats()
		out = append(out, WireStat{
			Stage:   p.stages[i].Name,
			Bytes:   bytes,
			Flushes: flushes,
			Frames:  frames,
		})
	}
	return out
}

// sinkAlign is the sink-side counterpart of alignState: the sink behaves
// like one more (virtual) subtask fed by every last-stage subtask, so the
// output-commit cut needs the same alignment — a subtask that already
// passed barrier k may keep emitting while slower peers have not, and
// those post-cut records must not leak into checkpoint k's batch. Without
// this, a crash-and-resume would re-derive (and duplicate) them.
type sinkAlign struct {
	id      uint64
	arrived []bool
	n       int
	held    []sinkEvent
}

// sinkEvent is one buffered sink delivery (record or watermark).
type sinkEvent struct {
	from int
	data any
	wm   model.Tick
	isWM bool
}

// sink delivers a record from the last stage, serialized and aligned.
func (p *Pipeline) sink(from int, data any) {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	p.sinkDeliver(sinkEvent{from: from, data: data})
}

// sinkWM routes a last-stage watermark through the sink alignment.
func (p *Pipeline) sinkWM(from int, wm model.Tick) {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	p.sinkDeliver(sinkEvent{from: from, wm: wm, isWM: true})
}

// sinkDeliver applies one event, or holds it while its sender is past a
// pending sink barrier (deepest such alignment first; per-sender FIFO puts
// the event behind that cut). Callers hold sinkMu.
func (p *Pipeline) sinkDeliver(ev sinkEvent) {
	for i := len(p.sinkAligns) - 1; i >= 0; i-- {
		a := p.sinkAligns[i]
		if ev.from >= 0 && ev.from < len(a.arrived) && a.arrived[ev.from] {
			a.held = append(a.held, ev)
			return
		}
	}
	p.sinkApply(ev)
}

// sinkApply performs one sink delivery. Callers hold sinkMu.
func (p *Pipeline) sinkApply(ev sinkEvent) {
	if !ev.isWM {
		if p.sinkFn != nil {
			p.sinkFn(ev.data)
		}
		return
	}
	if p.sinkWMFn == nil {
		return
	}
	if old, ok := p.sinkWMs[ev.from]; ok && old >= ev.wm {
		return
	}
	p.sinkWMs[ev.from] = ev.wm
	last := len(p.stages) - 1
	if len(p.sinkWMs) < p.stages[last].Parallelism {
		return
	}
	low := ev.wm
	for _, w := range p.sinkWMs {
		if w < low {
			low = w
		}
	}
	if low > p.sinkLow {
		p.sinkLow = low
		p.sinkWMFn(low)
	}
}

// sinkBarrier aligns checkpoint barriers across the last stage's subtasks
// at the sink. When the oldest alignment completes, every pre-cut record
// has been delivered and no post-cut record has: the SinkBarrier hook
// fires at the exact output-commit cut, then held deliveries replay.
func (p *Pipeline) sinkBarrier(from int, id uint64) {
	last := len(p.stages) - 1
	par := p.stages[last].Parallelism
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	var a *sinkAlign
	for _, x := range p.sinkAligns {
		if x.id == id {
			a = x
			break
		}
	}
	if a == nil {
		a = &sinkAlign{id: id, arrived: make([]bool, par)}
		p.sinkAligns = append(p.sinkAligns, a)
	}
	if from >= 0 && from < par && !a.arrived[from] {
		a.arrived[from] = true
		a.n++
	}
	for len(p.sinkAligns) > 0 && p.sinkAligns[0].n == par {
		head := p.sinkAligns[0]
		p.sinkAligns = p.sinkAligns[1:]
		if p.sinkBarFn != nil {
			p.sinkBarFn(head.id)
		}
		// Replayed events are applied directly, never re-held: an event
		// held under cut k precedes its sender's next barrier (later
		// events were held one alignment deeper at arrival), so it belongs
		// to batch k+1, whose cut has not fired yet.
		for _, ev := range head.held {
			p.sinkApply(ev)
		}
	}
}

// ReorderBuffer restores tick order behind a parallel stage: items are
// buffered per tick and released in ascending tick order as the merged
// watermark advances. It is the building block keyed stateful operators
// (the pattern enumerators) use to see snapshots in time order.
type ReorderBuffer struct {
	byTick map[model.Tick][]any
}

// NewReorderBuffer returns an empty buffer.
func NewReorderBuffer() *ReorderBuffer {
	return &ReorderBuffer{byTick: make(map[model.Tick][]any)}
}

// Add buffers one item under its tick.
func (r *ReorderBuffer) Add(t model.Tick, item any) {
	r.byTick[t] = append(r.byTick[t], item)
}

// Release removes and returns all items with tick <= wm, ordered by tick
// (items within one tick keep insertion order).
func (r *ReorderBuffer) Release(wm model.Tick) []any {
	var ticks []model.Tick
	for t := range r.byTick {
		if t <= wm {
			ticks = append(ticks, t)
		}
	}
	if len(ticks) == 0 {
		return nil
	}
	sortTicks(ticks)
	var out []any
	for _, t := range ticks {
		out = append(out, r.byTick[t]...)
		delete(r.byTick, t)
	}
	return out
}

// ReleaseAll drains the buffer in tick order (stream end).
func (r *ReorderBuffer) ReleaseAll() []any {
	return r.Release(1<<62 - 1)
}

// Len returns the number of buffered ticks.
func (r *ReorderBuffer) Len() int { return len(r.byTick) }

// BufferedTicks returns the buffered ticks in ascending order (state
// snapshots walk the buffer deterministically).
func (r *ReorderBuffer) BufferedTicks() []model.Tick {
	ticks := make([]model.Tick, 0, len(r.byTick))
	for t := range r.byTick {
		ticks = append(ticks, t)
	}
	sortTicks(ticks)
	return ticks
}

// Items returns the items buffered under tick t, in insertion order.
func (r *ReorderBuffer) Items(t model.Tick) []any { return r.byTick[t] }

func sortTicks(ts []model.Tick) {
	// Insertion sort: tick batches are small and nearly sorted.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
