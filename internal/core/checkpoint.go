// Checkpoint orchestration for the driver side of a run: barrier cadence,
// ack collection, output commit, and resume-from-checkpoint. The protocol
// itself lives in internal/ckpt and internal/flow; this file binds it to
// the pipeline façade — both the in-process pipeline (flow hooks call the
// runner directly) and the distributed one (acks and sink barriers arrive
// via the tcpnet control plane and are injected through the Deliver*
// methods).
package core

import (
	"fmt"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs/events"
	"repro/internal/topology"
)

// ckptRunner is the per-run checkpoint state machine.
type ckptRunner struct {
	coord     *ckpt.Coordinator
	store     ckpt.Store
	interval  int64
	deltaMode bool // cut incremental checkpoints whenever a base exists
	stats     *metrics.CheckpointStats
	events    *events.Log // structured event log (nil discards)
	onCommit  func(id uint64, pats []model.Pattern)

	mu sync.Mutex
	// count is the source units pushed, including the resumed prefix: one
	// per PushRecord, one per PushSnapshot.
	count       int64
	lastTick    model.Tick // highest pushed tick
	lastBarrier int64      // count at the last injected barrier
	nextID      uint64
	resume      *ckpt.SourcePosition

	// Per-partition replay offsets mirrored into every checkpoint's source
	// position, plus the tick-based barrier cadence: the interval means
	// "ticks between checkpoints", whatever the records per tick.
	partRecs        []int64
	partTicks       []model.Tick
	nextBarrierTick model.Tick
	haveCadence     bool

	pending    []model.Pattern // emitted since the last sink cut
	cuts       []cutBatch      // sink cuts awaiting checkpoint durability
	maxDurable uint64

	commitMu sync.Mutex     // serializes onCommit callbacks in cut order
	ackWG    sync.WaitGroup // outstanding asynchronous ack writes
}

// cutBatch is the sink output between two consecutive sink-barrier cuts.
type cutBatch struct {
	id   uint64
	pats []model.Pattern
}

// ckptBarrier is one barrier-injection decision: which checkpoint to cut,
// and whether it is incremental against base. The runner decides, the
// pipeline injects (the runner has no pipeline reference).
type ckptBarrier struct {
	id    uint64
	base  uint64
	delta bool
}

// injectBarrier submits the barrier a runner decision asked for.
func (p *Pipeline) injectBarrier(b ckptBarrier) {
	if b.delta {
		p.fl.SubmitBarrierDelta(b.id, b.base)
	} else {
		p.fl.SubmitBarrier(b.id)
	}
}

// ckptStages extracts the manifest stage descriptors from a topology graph.
func ckptStages(g *topology.Graph) []ckpt.StageInfo {
	stages := make([]ckpt.StageInfo, len(g.Stages))
	for i, st := range g.Stages {
		stages[i] = ckpt.StageInfo{Name: st.Name, Parallelism: st.Parallelism}
	}
	return stages
}

// topologyStages builds the stage descriptors of cfg's standard topology
// without building the pipeline (the distributed resume path needs them
// before the handshake).
func topologyStages(cfg Config) ([]ckpt.StageInfo, error) {
	g, err := Topology(&cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	return ckptStages(g), nil
}

// newCkptRunner opens the store, optionally loads the latest completed
// checkpoint for resume, and returns the runner plus the restore manifest
// (nil on a fresh start).
func newCkptRunner(cfg *Config, stages []ckpt.StageInfo) (*ckptRunner, *ckpt.Manifest, error) {
	stats := &metrics.CheckpointStats{}
	store := cfg.CheckpointStore
	if store == nil {
		ds, err := ckpt.NewDirStore(cfg.CheckpointDir)
		if err != nil {
			return nil, nil, err
		}
		ds.Paged = cfg.CheckpointPaged
		ds.Stats = stats
		if cfg.CheckpointDelta {
			ds.CompactThreshold = cfg.CheckpointCompact
			if ds.CompactThreshold <= 0 {
				ds.CompactThreshold = ckpt.DefaultCompactThreshold
			}
		}
		store = ds
	}
	// Manifests are stamped with the semantic fingerprint, not the full
	// spec: a resume may change deployment knobs (parallelism above all)
	// without invalidating the checkpoint.
	fp, err := Fingerprint(*cfg)
	if err != nil {
		return nil, nil, err
	}
	coord, err := ckpt.NewCoordinator(store, stages)
	if err != nil {
		return nil, nil, err
	}
	coord.Spec = fp
	coord.MaxParallelism = cfg.MaxParallelism
	coord.Stats = stats
	r := &ckptRunner{
		coord:     coord,
		store:     store,
		interval:  int64(cfg.CheckpointInterval),
		deltaMode: cfg.CheckpointDelta,
		stats:     stats,
		events:    cfg.Events,
		onCommit:  cfg.OnCommit,
		nextID:    1,
	}
	if ds, ok := store.(*ckpt.DirStore); ok && ds.OnCompact == nil {
		ds.OnCompact = func(id uint64, chainLen int, err error) {
			if err != nil {
				cfg.Events.Emit("compaction", events.F("id", id),
					events.F("chain", chainLen), events.F("error", err.Error()))
				return
			}
			cfg.Events.Emit("compaction", events.F("id", id), events.F("chain", chainLen))
		}
	}
	r.partRecs = make([]int64, cfg.SourcePartitions)
	r.partTicks = make([]model.Tick, cfg.SourcePartitions)
	for i := range r.partTicks {
		r.partTicks[i] = model.NoLastTime
	}
	r.lastTick = model.NoLastTime // max over pushed ticks, none yet
	coord.OnComplete = r.onComplete
	var man *ckpt.Manifest
	if cfg.Resume {
		if man, err = resumeManifest(store, fp); err != nil {
			return nil, nil, err
		}
		if man != nil {
			if err := man.Validate(stages, cfg.MaxParallelism); err != nil {
				return nil, nil, err
			}
			// The fingerprint pins the partition count, so a mismatch
			// here means a corrupted manifest, not a config change.
			if len(man.Source.Partitions) != cfg.SourcePartitions {
				return nil, nil, fmt.Errorf(
					"core: checkpoint %d records %d source partitions, this run has %d",
					man.ID, len(man.Source.Partitions), cfg.SourcePartitions)
			}
			for i, pp := range man.Source.Partitions {
				r.partRecs[i] = pp.Records
				r.partTicks[i] = pp.LastTick
			}
			r.resume = &man.Source
			r.count = man.Source.Snapshots
			r.lastBarrier = man.Source.Snapshots
			r.lastTick = man.Source.LastTick
			r.nextID = man.ID + 1
			r.nextBarrierTick = man.Source.LastTick + 1 + model.Tick(cfg.CheckpointInterval)
			r.haveCadence = true
			cfg.Events.Emit("restore", events.F("id", man.ID),
				events.F("last_tick", int64(man.Source.LastTick)),
				events.F("snapshots", man.Source.Snapshots),
				events.F("delta", man.Delta))
			emitRescale(cfg.Events, man, stages)
		}
	}
	return r, man, nil
}

// emitRescale logs a rescale event when a resume changes any stage's
// parallelism relative to the checkpointed topology (the supported elastic
// path — state is re-sliced by key group).
func emitRescale(log *events.Log, man *ckpt.Manifest, stages []ckpt.StageInfo) {
	old := make(map[string]int, len(man.Stages))
	for _, st := range man.Stages {
		old[st.Name] = st.Parallelism
	}
	for _, st := range stages {
		if prev, ok := old[st.Name]; ok && prev != st.Parallelism {
			log.Emit("rescale", events.F("stage", st.Name),
				events.F("from", prev), events.F("to", st.Parallelism))
		}
	}
}

// ack is the flow.Config.OnCheckpointState hook for locally executing
// stages; the tcpnet control plane funnels remote acks into the same path.
// The store write happens off the caller's goroutine: a subtask must not
// stall on checkpoint disk I/O (that cost would show up as pipeline
// latency on every barrier). finish() drains outstanding writes so a
// graceful shutdown still leaves its final checkpoint durable.
func (r *ckptRunner) ack(id uint64, stage, subtask int, state []byte, err error) {
	r.ackWG.Add(1)
	go func() {
		defer r.ackWG.Done()
		r.coord.Ack(id, stage, subtask, state, err)
	}()
}

// beforePush records one source unit at tick — a record, or a whole
// snapshot — whose records route to the source partitions in parts, and
// decides whether the barrier for a new checkpoint must be injected ahead
// of it. The cadence is tick-based: a barrier fires before the first unit
// whose tick has advanced CheckpointInterval ticks past the previous cut,
// so cuts fall on tick boundaries of an ordered stream. The caller holds
// the pipeline's source mutex and submits the barrier before the unit's
// records, so the counted prefix is exactly the record set ahead of the
// barrier on every source edge. (The runner has no pipeline reference,
// keeping it testable.)
func (r *ckptRunner) beforePush(tick model.Tick, parts ...int) (b ckptBarrier, inject bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, inject = r.cutLocked(tick) // position excludes the unit behind the barrier
	r.count++
	if tick > r.lastTick {
		r.lastTick = tick
	}
	for _, part := range parts {
		r.partRecs[part]++
		if tick > r.partTicks[part] {
			r.partTicks[part] = tick
		}
	}
	return b, inject
}

// afterTick is called once every record of tick has been pushed and its
// watermark submitted. The barrier the next tick would open goes out now,
// right behind that watermark, instead of waiting for the next tick's
// first record: the cut is the same, and a paced driver sees the
// checkpoint without pushing more.
func (r *ckptRunner) afterTick(tick model.Tick) (b ckptBarrier, inject bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cutLocked(tick + 1)
}

// cutLocked applies the barrier cadence to the next unit at tick.
func (r *ckptRunner) cutLocked(tick model.Tick) (b ckptBarrier, inject bool) {
	if r.interval <= 0 {
		return b, false
	}
	switch {
	case !r.haveCadence:
		r.nextBarrierTick = tick + model.Tick(r.interval)
		r.haveCadence = true
	case tick >= r.nextBarrierTick && r.count > r.lastBarrier:
		b = r.beginLocked()
		r.nextBarrierTick = tick + model.Tick(r.interval)
		inject = true
	}
	return b, inject
}

// finalBarrier opens a last checkpoint covering the stream tail, injected
// by Finish before the drain so a graceful shutdown leaves a resumable
// cut. It is skipped when nothing was pushed since the previous barrier.
func (r *ckptRunner) finalBarrier() (b ckptBarrier, inject bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == r.lastBarrier {
		return ckptBarrier{}, false
	}
	return r.beginLocked(), true
}

func (r *ckptRunner) beginLocked() ckptBarrier {
	id := r.nextID
	r.nextID++
	r.lastBarrier = r.count
	pos := ckpt.SourcePosition{
		Snapshots:  r.count,
		LastTick:   r.lastTick,
		Partitions: make([]ckpt.PartitionPosition, len(r.partRecs)),
	}
	for i := range r.partRecs {
		pos.Partitions[i] = ckpt.PartitionPosition{
			Records:  r.partRecs[i],
			LastTick: r.partTicks[i],
		}
	}
	b := ckptBarrier{id: id}
	if r.deltaMode {
		// Incremental against the newest checkpoint committed by THIS
		// process incarnation: a base from before a restart would predate
		// the operators' dirtiness tracking (delta chains never span
		// restarts), so the first cut after start/resume is always full.
		// Completed ids are monotone, hence so are successive bases.
		if done, ok := r.coord.Completed(); ok {
			b.base, b.delta = done, true
		}
	}
	if err := r.coord.Begin(id, pos, b.base, b.delta); err != nil {
		// Ids are assigned here and only here; Begin cannot collide.
		panic(fmt.Sprintf("core: %v", err))
	}
	r.events.Emit("checkpoint.begin", events.F("id", id),
		events.F("delta", b.delta), events.F("base", b.base),
		events.F("snapshots", r.count), events.F("last_tick", int64(r.lastTick)))
	return b
}

// onPattern buffers one emitted pattern for output commit. Returns false
// when no commit hook is installed (the caller then delivers immediately).
func (r *ckptRunner) onPattern(p model.Pattern) bool {
	if r.onCommit == nil {
		return false
	}
	r.mu.Lock()
	r.pending = append(r.pending, p)
	r.mu.Unlock()
	return true
}

// onSinkBarrier closes the current output batch at checkpoint id's sink
// cut: every pattern emitted before the cut is in the batch, none after.
// Without a commit hook there is nothing to withhold — tracking cuts
// anyway would grow the slice once per checkpoint, forever.
func (r *ckptRunner) onSinkBarrier(id uint64) {
	if r.onCommit == nil {
		return
	}
	r.mu.Lock()
	r.cuts = append(r.cuts, cutBatch{id: id, pats: r.pending})
	r.pending = nil
	r.mu.Unlock()
	r.release()
}

// onComplete marks checkpoint id durable (manifest committed).
func (r *ckptRunner) onComplete(m ckpt.Manifest) {
	r.mu.Lock()
	if m.ID > r.maxDurable {
		r.maxDurable = m.ID
	}
	r.mu.Unlock()
	r.events.Emit("checkpoint.complete", events.F("id", m.ID),
		events.F("delta", m.Delta), events.F("chain", len(m.Chain)))
	r.release()
}

// release commits every cut batch covered by a durable checkpoint: batch k
// may be published once checkpoint k' >= k is durable, because a resumed
// run restarts at or after cut k' and can never re-derive its contents. An
// aborted checkpoint's batch is swept up by the next durable one.
func (r *ckptRunner) release() {
	if r.onCommit == nil {
		return
	}
	// commitMu (taken first) keeps concurrent releases in cut order.
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	r.mu.Lock()
	var ready []cutBatch
	for len(r.cuts) > 0 && r.cuts[0].id <= r.maxDurable {
		ready = append(ready, r.cuts[0])
		r.cuts = r.cuts[1:]
	}
	r.mu.Unlock()
	for _, b := range ready {
		if len(b.pats) > 0 {
			r.onCommit(b.id, b.pats)
		}
	}
}

// finish drains outstanding ack writes (making the final checkpoint
// durable before the run reports completion) and releases everything
// still withheld at the clean end of stream: the run is over, so there is
// no crash window left to protect against.
func (r *ckptRunner) finish() {
	r.ackWG.Wait()
	if r.onCommit == nil {
		return
	}
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	r.mu.Lock()
	cuts := r.cuts
	pending := r.pending
	r.cuts, r.pending = nil, nil
	r.mu.Unlock()
	for _, b := range cuts {
		if len(b.pats) > 0 {
			r.onCommit(b.id, b.pats)
		}
	}
	if len(pending) > 0 {
		r.onCommit(0, pending)
	}
}

// restoreBlobs loads every subtask's state from the manifest's checkpoint
// (one container read on bulk-capable stores) and re-slices it onto the
// resuming topology's per-stage parallelism in target, keyed for the
// tcpnet handshake over the NEW subtask indices — RestoreKey and
// ckpt.StateKey are the same function, so the writing and reading sides
// cannot drift. Empty blobs are omitted (Reshard already drops them).
func restoreBlobs(store ckpt.Store, m *ckpt.Manifest, target []ckpt.StageInfo) (map[string][]byte, error) {
	states, err := ckpt.AllStates(store, m)
	if err != nil {
		return nil, err
	}
	return ckpt.Reshard(states, m, target)
}

// resumeManifest loads the latest completed checkpoint and validates its
// configuration fingerprint against the resuming run's — shared by the
// in-process (newCkptRunner) and distributed (NewDistributed) resume
// paths so the two cannot diverge. The fingerprint covers detection
// semantics and MaxParallelism but NOT Parallelism: resuming at a
// different subtask count is the supported rescale path. Returns nil on a
// fresh store.
func resumeManifest(store ckpt.Store, fp []byte) (*ckpt.Manifest, error) {
	man, err := store.Latest()
	if err != nil || man == nil {
		return nil, err
	}
	// Restoring state into a job with different detection semantics
	// (another enumeration method, other constraints, a different
	// key→group mapping, ...) would be silent corruption at best and a
	// decode failure at worst — refuse up front with the two
	// configurations in hand.
	if len(man.Spec) > 0 && string(man.Spec) != string(fp) {
		return nil, fmt.Errorf(
			"core: checkpoint %d was taken with a different configuration\n  checkpoint: %s\n  this run:   %s",
			man.ID, man.Spec, fp)
	}
	return man, nil
}

// ResumePosition reports the source position a resumed pipeline restarts
// from: a driver replaying whole ticks skips every tick <= LastTick (they
// are part of the restored state); one replaying a record stream skips
// each partition's Records. ok is false when the run did not resume from
// a checkpoint.
func (p *Pipeline) ResumePosition() (ckpt.SourcePosition, bool) {
	if p.ck == nil || p.ck.resume == nil {
		return ckpt.SourcePosition{}, false
	}
	return *p.ck.resume, true
}

// DeliverCheckpointAck injects a checkpoint ack forwarded from a remote
// worker (tcpnet control plane).
func (p *Pipeline) DeliverCheckpointAck(id uint64, stage, subtask int, state []byte, err error) {
	if p.ck != nil {
		p.ck.ack(id, stage, subtask, state, err)
	}
}

// DeliverSinkBarrier injects the remote last stage's sink-barrier cut.
func (p *Pipeline) DeliverSinkBarrier(id uint64) {
	if p.ck != nil {
		p.ck.onSinkBarrier(id)
	}
}
