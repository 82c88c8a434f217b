// Package stream implements the ingestion side of ICPE (Section 4): time
// discretization of raw GPS records and the per-partition, out-of-order
// snapshot assembly driven by per-record "last time" markers.
//
// # Discretization
//
// Wall-clock timestamps are mapped to tick indices of fixed-width
// intervals: tick = floor((t - origin) / interval). When an object reports
// several records within one interval, the first one wins (the paper warns
// that the interval must be chosen to match the sampling rate); the source
// Partition drops the rest.
//
// # Last-time synchronization
//
// Flink-style pipelines do not guarantee arrival order, but pattern
// detection requires snapshots in ascending tick order. Every record a
// Partition accepts is stamped with the tick of the previous snapshot its
// object reported (Section 4), giving the assembler per-object coverage
// evidence:
//
//   - a record of object X at tick t says X reported at t;
//   - a record of X at tick t' > t with LastTick < t proves X skipped t;
//   - a record of X at tick t' > t with LastTick >= t proves a record of X
//     for some tick in [t, t') is still in flight — snapshot t must wait.
//
// Snapshot t is released once every known object covers t. Objects the
// assembler has never seen cannot be waited for; the Slack parameter
// (bounded out-of-orderness in ticks, as in watermarking) delays release to
// absorb late first records. Objects silent for more than SilenceTimeout
// ticks are considered departed so a vanished trajectory cannot stall the
// stream forever.
package stream

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

// Discretizer maps wall-clock times to ticks. It is stateless, so one
// value may be shared by concurrent feeders.
type Discretizer struct {
	origin   time.Time
	interval time.Duration
}

// NewDiscretizer returns a discretizer with the given interval duration.
func NewDiscretizer(origin time.Time, interval time.Duration) *Discretizer {
	if interval <= 0 {
		panic("stream: discretization interval must be positive")
	}
	return &Discretizer{origin: origin, interval: interval}
}

// Tick returns the tick index for a wall-clock time.
func (d *Discretizer) Tick(t time.Time) model.Tick {
	return model.Tick(t.Sub(d.origin) / d.interval)
}

// DefaultSilenceTimeout is how many ticks an object may stay silent before
// the assembler stops waiting for it.
const DefaultSilenceTimeout = 64

// objState tracks one object's arrived-but-unreleased records.
type objState struct {
	// ticks holds arrived record ticks >= the release frontier, ascending.
	ticks []model.Tick
	// lastOf[t] is the LastTick carried by the record at tick t.
	lastOf map[model.Tick]model.Tick
	// frontier is the highest tick this object has ever reported.
	frontier model.Tick
}

// assembler buffers stamped records arriving in arbitrary order and
// releases complete snapshots in strictly increasing tick order. Each
// Partition runs one over its shard.
type assembler struct {
	// Slack delays the release of snapshot t until a record with tick
	// > t + Slack has been seen, absorbing late first records of unknown
	// objects (watermark-style bounded out-of-orderness). Zero by default.
	Slack model.Tick
	// SilenceTimeout stops waiting for objects whose latest record is more
	// than this many ticks behind; their in-flight records, if any, are
	// dropped on arrival. Defaults to DefaultSilenceTimeout.
	SilenceTimeout model.Tick

	pending  map[model.Tick]*model.Snapshot
	objects  map[model.ObjectID]*objState
	nextTick model.Tick
	maxSeen  model.Tick
	started  bool
	released bool
}

// newAssembler returns an empty assembler with default settings.
func newAssembler() *assembler {
	return &assembler{
		SilenceTimeout: DefaultSilenceTimeout,
		pending:        make(map[model.Tick]*model.Snapshot),
		objects:        make(map[model.ObjectID]*objState),
	}
}

// Push ingests one stamped record and appends any snapshots that became
// complete, in tick order, to out. It returns the extended slice.
func (a *assembler) Push(r model.StampedRecord, out []*model.Snapshot) []*model.Snapshot {
	if !a.started {
		a.nextTick = r.Tick
		a.started = true
	} else if r.Tick < a.nextTick {
		if a.released {
			// Late record for an already-released snapshot: dropped by
			// policy (it exceeded the slack / silence bounds).
			return out
		}
		// Nothing released yet: the release frontier can still move down
		// to accommodate records older than the first arrival.
		a.nextTick = r.Tick
	}
	if r.Tick > a.maxSeen {
		a.maxSeen = r.Tick
	}
	snap := a.pending[r.Tick]
	if snap == nil {
		snap = &model.Snapshot{Tick: r.Tick}
		a.pending[r.Tick] = snap
	}
	if snap.Ingest.IsZero() || (!r.Ingest.IsZero() && r.Ingest.Before(snap.Ingest)) {
		snap.Ingest = r.Ingest
	}
	snap.Add(r.Object, r.Loc)

	st := a.objects[r.Object]
	if st == nil {
		st = &objState{lastOf: make(map[model.Tick]model.Tick)}
		a.objects[r.Object] = st
	}
	i := sort.Search(len(st.ticks), func(i int) bool { return st.ticks[i] >= r.Tick })
	st.ticks = append(st.ticks, 0)
	copy(st.ticks[i+1:], st.ticks[i:])
	st.ticks[i] = r.Tick
	st.lastOf[r.Tick] = r.LastTick
	if r.Tick > st.frontier {
		st.frontier = r.Tick
	}

	return a.release(out)
}

// covers reports whether object state st accounts for tick t: either its
// record at t arrived, or a later arrived record's LastTick proves the
// object skipped t, or the object has been silent long enough to be
// considered departed.
func (a *assembler) covers(st *objState, t model.Tick) bool {
	i := sort.Search(len(st.ticks), func(i int) bool { return st.ticks[i] >= t })
	if i < len(st.ticks) {
		if st.ticks[i] == t {
			return true // record at t arrived
		}
		// Next arrived record is at st.ticks[i] > t; its LastTick says
		// whether the object reported anywhere in [t, st.ticks[i]).
		return st.lastOf[st.ticks[i]] < t
	}
	// No arrived record at or after t: the object may report t later,
	// unless it has been silent beyond the timeout.
	return st.frontier+a.SilenceTimeout < t
}

// release emits all leading complete snapshots.
func (a *assembler) release(out []*model.Snapshot) []*model.Snapshot {
	for a.nextTick+a.Slack < a.maxSeen {
		t := a.nextTick
		complete := true
		for _, st := range a.objects {
			if !a.covers(st, t) {
				complete = false
				break
			}
		}
		if !complete {
			break
		}
		out = append(out, a.take(t))
		a.nextTick++
		a.released = true
	}
	return out
}

// take removes and finalizes the snapshot at tick t (creating an empty one
// when no records arrived) and prunes per-object state below the frontier.
func (a *assembler) take(t model.Tick) *model.Snapshot {
	snap := a.pending[t]
	delete(a.pending, t)
	if snap == nil {
		snap = &model.Snapshot{Tick: t}
	} else {
		sortSnapshot(snap)
	}
	for id, st := range a.objects {
		// Keep one entry at or below t+1 is unnecessary: coverage queries
		// only look at ticks >= nextTick, so drop everything below.
		for len(st.ticks) > 0 && st.ticks[0] <= t {
			delete(st.lastOf, st.ticks[0])
			st.ticks = st.ticks[1:]
		}
		if len(st.ticks) == 0 && st.frontier+a.SilenceTimeout < t {
			delete(a.objects, id)
		}
	}
	return snap
}

// ReleaseThrough force-releases every tick <= wm, appending the non-empty
// snapshots to out in tick order. The caller promises that no further
// record with tick <= wm will be pushed (a source watermark), so waiting
// for coverage below wm is pointless: whatever arrived is whatever there
// is. Records pushed later with tick <= wm are dropped, like any record
// below the release frontier.
func (a *assembler) ReleaseThrough(wm model.Tick, out []*model.Snapshot) []*model.Snapshot {
	if !a.started {
		// Nothing ever arrived: just advance the frontier past wm.
		a.started = true
		a.released = true
		a.nextTick = wm + 1
		if wm > a.maxSeen {
			a.maxSeen = wm
		}
		return out
	}
	for a.nextTick <= wm {
		snap := a.take(a.nextTick)
		if snap.Len() > 0 {
			out = append(out, snap)
		}
		a.nextTick++
		a.released = true
	}
	if wm > a.maxSeen {
		a.maxSeen = wm
	}
	return out
}

// FlushAll releases every pending snapshot regardless of outstanding waits
// (end of stream).
func (a *assembler) FlushAll(out []*model.Snapshot) []*model.Snapshot {
	var ticks []model.Tick
	for t := range a.pending {
		ticks = append(ticks, t)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	for _, t := range ticks {
		if t < a.nextTick {
			continue
		}
		snap := a.pending[t]
		sortSnapshot(snap)
		out = append(out, snap)
		delete(a.pending, t)
	}
	if a.maxSeen >= a.nextTick {
		a.nextTick = a.maxSeen + 1
	}
	a.objects = make(map[model.ObjectID]*objState)
	return out
}

// Pending returns the number of buffered snapshots (observability).
func (a *assembler) Pending() int { return len(a.pending) }

// sortSnapshot orders a snapshot's objects by id so downstream processing
// and tests are deterministic regardless of arrival order.
func sortSnapshot(s *model.Snapshot) {
	idx := make([]int, len(s.Objects))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.Objects[idx[a]] < s.Objects[idx[b]] })
	objs := make([]model.ObjectID, len(idx))
	locs := make([]geo.Point, len(idx))
	for i, j := range idx {
		objs[i] = s.Objects[j]
		locs[i] = s.Locs[j]
	}
	s.Objects = objs
	s.Locs = locs
}

// Validate sanity-checks a stamped record (used by file/network sources).
func Validate(r model.StampedRecord) error {
	if r.Tick < 0 {
		return fmt.Errorf("stream: negative tick %d", r.Tick)
	}
	if r.LastTick != model.NoLastTime && r.LastTick >= r.Tick {
		return fmt.Errorf("stream: last tick %d not before tick %d", r.LastTick, r.Tick)
	}
	return nil
}
