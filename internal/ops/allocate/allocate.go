// Package allocate implements the GridAllocate operator (Algorithm 1) fed
// by the partitioned record source. There is no snapshot: the operator
// receives raw records keyed by object id, buffers each tick's records for
// its own key groups, and flushes a tick when the merged source watermark
// passes it — emitting a partial msg.Meta (this shard's sorted object ids)
// plus either cell tasks replicated by the configured mode (classic) or
// msg.CellDelta enter/leave/move tasks diffed against the shard's own
// previous-tick positions (incremental), so downstream stages only touch
// the cells where something changed. The previous-position map is
// per-key-group state: it checkpoints bucketed by the object id's key
// group and therefore rescales with the stage.
package allocate

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

var (
	_ ckpt.Snapshotter      = (*Op)(nil)
	_ ckpt.GroupSnapshotter = (*Op)(nil)
	_ ckpt.DeltaSnapshotter = (*Op)(nil)
)

// noTick is the "nothing flushed yet" sentinel for the tick cursor (matches the flow runtime's initial watermark).
const noTick = model.Tick(-1 << 62)

// Stats aggregates allocate counters across the stage's
// subtasks; the driver registers them as metrics. Enter/move/leave
// classify incremental diffs (a classic run leaves them at zero).
type Stats struct {
	Enters atomic.Int64
	Moves  atomic.Int64
	Leaves atomic.Int64
	// Flushed[i] is 1 + the highest watermark subtask i has flushed
	// through (0 until the first flush) — the per-shard front-end
	// progress the watermark-lag gauge reads.
	Flushed []atomic.Int64
}

// NewStats sizes the per-subtask progress slots.
func NewStats(parallelism int) *Stats {
	return &Stats{Flushed: make([]atomic.Int64, parallelism)}
}

// partial buffers one tick's records for this subtask's key groups.
type partial struct {
	ids    []model.ObjectID
	locs   []geo.Point
	ingest time.Time
}

// Op is the GridAllocate operator; one instance per subtask. Every subtask
// holds the open per-tick record buffers of its own key groups, plus, in
// incremental mode, their objects' previous positions.
type Op struct {
	flow.BaseOperator
	// CellWidth is the grid cell width lg.
	CellWidth float64
	// Eps is the range-join distance threshold.
	Eps float64
	// Mode selects Lemma 1 upper-half replication (RJC) or full-region
	// replication (the SRJ/GDC baselines).
	Mode grid.Mode
	// Incremental switches the operator to delta emission: each subtask
	// diffs its own shard independently.
	Incremental bool
	// Subtask is this instance's index (progress reporting).
	Subtask int
	// Stats, when non-nil, receives the counters.
	Stats *Stats

	// prev maps this shard's object ids to their location at the
	// previously flushed tick; allocated on first use.
	prev map[model.ObjectID]geo.Point

	pending map[model.Tick]*partial
	// lastFlushed is the highest tick this shard has accounted for:
	// every tick <= lastFlushed has either been flushed or established
	// as silent for this shard.
	lastFlushed model.Tick
	dirty       *ckpt.DirtyTracker
}

// New builds a GridAllocate operator: subtask's share of the record
// stream in, per-shard metas and cell tasks/deltas out.
func New(cellWidth, eps float64, mode grid.Mode, incremental bool, subtask int, stats *Stats) *Op {
	return &Op{
		CellWidth:   cellWidth,
		Eps:         eps,
		Mode:        mode,
		Incremental: incremental,
		Subtask:     subtask,
		Stats:       stats,
		pending:     make(map[model.Tick]*partial),
		lastFlushed: noTick,
		dirty:       ckpt.NewDirtyTracker(),
	}
}

// Process buffers one raw record under its tick.
func (a *Op) Process(data any, _ *flow.Collector) {
	a.buffer(data.(msg.Rec))
}

// buffer stashes one record under its tick.
func (a *Op) buffer(r msg.Rec) {
	a.dirty.Touch(uint64(r.Object))
	p := a.pending[r.Tick]
	if p == nil {
		p = &partial{}
		a.pending[r.Tick] = p
	}
	p.ids = append(p.ids, r.Object)
	p.locs = append(p.locs, r.Loc)
	if p.ingest.IsZero() || (!r.Ingest.IsZero() && r.Ingest.Before(p.ingest)) {
		p.ingest = r.Ingest
	}
}

// OnWatermark flushes every buffered tick the merged source watermark has
// passed: all source partitions have promised their contribution to those
// ticks is complete, which is exactly the release condition the global
// assembler used to compute — now evaluated shard-locally with no
// materialized snapshot.
func (a *Op) OnWatermark(wm model.Tick, out *flow.Collector) {
	a.flush(wm, out, true)
}

// Close flushes whatever is still buffered (end of stream). No trailing
// phantom: ticks beyond the last buffered one never materialized.
func (a *Op) Close(out *flow.Collector) {
	a.flush(model.Tick(1<<62-1), out, false)
}

// flush releases buffered ticks <= wm in ascending order. In incremental
// mode a gap in this shard's buffered ticks means the shard went silent
// while the stream advanced: the stream's snapshot for such a tick omits
// the shard's objects, so the diff must delete them — emitted once as a
// "phantom" delete-all delta attributed to the first silent tick (see
// phantomGap). With trailing set, the silent stretch up to wm itself is
// also accounted for.
func (a *Op) flush(wm model.Tick, out *flow.Collector, trailing bool) {
	var ticks []model.Tick
	for t := range a.pending {
		if t <= wm {
			ticks = append(ticks, t)
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	for _, t := range ticks {
		p := a.pending[t]
		delete(a.pending, t)
		// Releasing the buffer (and, incrementally, moving prev) changes
		// every flushed id's group state; a delta cut after this flush must
		// re-capture those groups or restore would resurrect the records.
		for _, id := range p.ids {
			a.dirty.Touch(uint64(id))
		}
		if t <= a.lastFlushed {
			continue // replayed duplicate; already accounted for
		}
		if a.Incremental {
			a.phantomGap(t, out)
		}
		a.flushTick(t, p, out)
		a.lastFlushed = t
	}
	if trailing && wm > a.lastFlushed {
		if a.Incremental {
			a.phantomGap(wm+1, out)
		}
		a.lastFlushed = wm
	}
	if a.Stats != nil && a.Subtask < len(a.Stats.Flushed) && wm >= 0 && wm < 1<<62-1 {
		a.Stats.Flushed[a.Subtask].Store(int64(wm) + 1)
	}
}

// phantomGap covers the silent ticks strictly before next: if the shard
// holds previous positions but flushed nothing since lastFlushed, the
// stream materialized ticks without this shard's objects, so they all
// vanish at the first silent tick. One delete-all delta empties prev;
// later silent ticks are then no-ops, so the phantom costs O(shard) once
// per silent stretch, not per tick.
func (a *Op) phantomGap(next model.Tick, out *flow.Collector) {
	if a.lastFlushed == noTick || a.lastFlushed >= next-1 || len(a.prev) == 0 {
		return
	}
	t := a.lastFlushed + 1
	for id := range a.prev {
		a.dirty.Touch(uint64(id))
	}
	if a.Stats != nil {
		a.Stats.Leaves.Add(int64(len(a.prev)))
	}
	// No Meta: the shard contributed no objects to this tick. Downstream
	// applies meta-less deltas silently; no shard announces this shard's
	// objects for the tick either.
	for _, delta := range join.DiffObjects(a.prev, nil, nil, a.CellWidth, a.Eps, a.Mode) {
		out.Emit(delta.Key.Hash(), msg.CellDelta{Tick: t, Delta: delta})
	}
	a.lastFlushed = next - 1
}

// flushTick releases one completed tick of this shard: a partial Meta
// announcing the shard's (sorted) object ids, then the shard's cell tasks
// (classic) or cell deltas (incremental). Partial metas and tasks from
// different shards merge downstream into exactly the whole tick's
// snapshot view, because key groups partition the object universe.
func (a *Op) flushTick(t model.Tick, p *partial, out *flow.Collector) {
	sort.Sort(byID{p})
	meta := msg.Meta{Tick: t, Objects: p.ids, Ingest: p.ingest}
	if !a.Incremental {
		out.Emit(uint64(t), meta)
		for _, task := range join.AllocateObjects(p.ids, p.locs, a.CellWidth, a.Eps, a.Mode) {
			out.Emit(task.Key.Hash(), msg.Cell{Tick: t, Task: task})
		}
		return
	}
	out.Emit(0, meta)
	if a.prev == nil {
		a.prev = make(map[model.ObjectID]geo.Point, len(p.ids))
	}
	var enters, moves int64
	for i, id := range p.ids {
		old, had := a.prev[id]
		switch {
		case !had:
			enters++
		case old != p.locs[i]:
			moves++
		}
	}
	// Objects leaving the shard this tick are not touched by any record,
	// but their key group's state changes: mark them dirty before the
	// diff removes them.
	leaves := int64(0)
	for id := range a.prev {
		j := sort.Search(len(p.ids), func(k int) bool { return p.ids[k] >= id })
		if j == len(p.ids) || p.ids[j] != id {
			a.dirty.Touch(uint64(id))
			leaves++
		}
	}
	for _, delta := range join.DiffObjects(a.prev, p.ids, p.locs, a.CellWidth, a.Eps, a.Mode) {
		out.Emit(delta.Key.Hash(), msg.CellDelta{Tick: t, Delta: delta})
	}
	if a.Stats != nil {
		a.Stats.Enters.Add(enters)
		a.Stats.Moves.Add(moves)
		a.Stats.Leaves.Add(leaves)
	}
}

// byID sorts a partial's parallel id/loc slices by object id.
type byID struct{ p *partial }

func (s byID) Len() int           { return len(s.p.ids) }
func (s byID) Less(i, j int) bool { return s.p.ids[i] < s.p.ids[j] }
func (s byID) Swap(i, j int) {
	s.p.ids[i], s.p.ids[j] = s.p.ids[j], s.p.ids[i]
	s.p.locs[i], s.p.locs[j] = s.p.locs[j], s.p.locs[i]
}
