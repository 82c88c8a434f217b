// Package msg defines the inter-stage message vocabulary of the ICPE
// pipeline. The operator packages under internal/ops exchange these types
// over keyed edges; keeping them in one shared package (instead of the
// private duplicates internal/core used to hold) lets operators be
// recombined into new topologies without redefining their wire types.
//
// Every message is self-contained: no field points into a snapshot (or any
// other structure) living on an upstream stage's heap, so records can be
// serialized with the codecs in codec.go and shipped to subtasks in other
// OS processes. The clustering stage reassembles the per-tick object view
// it needs from Meta and Pairs records instead of dereferencing a shared
// pointer: that view is merged from the per-shard partial Metas each
// allocate subtask emits.
package msg

import (
	"time"

	"repro/internal/geo"
	"repro/internal/join"
	"repro/internal/model"
)

// Rec is one discretized trajectory record on the ingestion edges. The
// driver (or a network front-end) submits
// it keyed by object id, which routes it to the source partition owning
// that object's key group; the partition tracks last-time markers and
// coverage internally (stream.Partition) and re-emits released records
// still keyed by object id straight to the allocate subtask owning the
// same key group — no global snapshot is assembled — so the record itself
// carries no last-time field.
type Rec struct {
	Object model.ObjectID
	Loc    geo.Point
	Tick   model.Tick
	// Ingest is when the record entered the pipeline (zero when unknown).
	Ingest time.Time
}

// Cell carries one grid cell's range-join task for one tick, keyed by grid
// cell. The task holds its objects by value (index + location), so the
// record is independent of the snapshot it was cut from.
type Cell struct {
	Tick model.Tick
	Task join.CellTask
}

// Meta announces one tick's object population to the clustering stage
// (GridSync input), keyed by tick: object ids plus the ingest instant. Each
// allocate subtask emits a partial Meta covering only its own objects
// (sorted ascending), and the clustering stage merges the disjoint
// partials into the tick's object list, which join pairs (naming objects
// by id) are translated into positions of.
type Meta struct {
	Tick    model.Tick
	Objects []model.ObjectID
	// Ingest is the snapshot's ingest instant, carried along so the
	// clustering stage can stamp latency metrics without a backpointer.
	Ingest time.Time
}

// Pairs carries one cell's join results back to the snapshot's clustering
// subtask, keyed by tick.
type Pairs struct {
	Tick  model.Tick
	Pairs [][2]int32
}

// CellDelta carries one grid cell's object delta for one tick in
// incremental mode, keyed by grid cell: objects leaving the cell since
// the previous tick (by id) and objects entering it (with location),
// split by data/query role. A move within the cell appears in both
// lists. Replaces Cell on the allocate -> rangejoin edge.
type CellDelta struct {
	Tick  model.Tick
	Delta join.CellDelta
}

// PairDelta carries one cell's owned-pair transitions for one tick in
// incremental mode: pairs of object ids (a < b) entering (Add) and
// leaving (Del) the cell's owned slice of the join result. The
// clustering stage nets Add/Del counts per pair per tick — a pair whose
// ownership moved between cells cancels out. Replaces Pairs on the
// rangejoin -> cluster edge; routed by constant key so the single
// stateful clustering subtask sees every delta.
type PairDelta struct {
	Tick model.Tick
	Add  [][2]model.ObjectID
	Del  [][2]model.ObjectID
}
