// Partition-local ingestion: the per-shard front of a partitioned source
// layer. Each source partition owns a disjoint shard of object ids (routed
// by the same key groups the exchanges use), runs its own last-time tracker
// and a shard-scoped assembler, and releases per-tick partial snapshots in
// strictly increasing tick order — the partition's coverage watermark. The
// merged (minimum) watermark across partitions is then exactly the release
// condition of one assembler over all objects: snapshot t is complete once
// every partition has released its shard of t.
package stream

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/model"
)

// PartitionFor returns the source partition owning an object's shard: the
// object's key group at the job's MaxParallelism, then the partition owning
// that group's range. It is the same mapping Collector.Emit routes by, so a
// record submitted keyed by object id lands exactly on PartitionFor's
// partition.
func PartitionFor(obj model.ObjectID, maxParallelism, partitions int) int {
	return flow.SubtaskForGroup(flow.KeyGroup(uint64(obj), maxParallelism), maxParallelism, partitions)
}

// Partition is one source partition's ingestion state: the last-time
// tracker for its shard of objects plus a shard-scoped assembler. It is not
// safe for concurrent use; the flow runtime serializes each subtask.
type Partition struct {
	last map[model.ObjectID]model.Tick
	asm  *assembler
	buf  []*model.Snapshot
}

// NewPartition builds an empty partition front with the given out-of-order
// slack and silence timeout (<= 0 uses DefaultSilenceTimeout).
func NewPartition(slack, silence model.Tick) *Partition {
	a := newAssembler()
	if slack > 0 {
		a.Slack = slack
	}
	if silence > 0 {
		a.SilenceTimeout = silence
	}
	return &Partition{last: make(map[model.ObjectID]model.Tick), asm: a}
}

// Push ingests one raw record of this shard and returns the partial
// snapshots (this shard's objects only, sorted by id) that became
// releasable, in strictly increasing tick order. Duplicate ticks per object
// and out-of-order records below the object's last tick are dropped — the
// same per-object rule for every shard, and the property that
// makes replaying a stream after recovery idempotent. The returned slice is
// reused by the next Push.
func (p *Partition) Push(obj model.ObjectID, loc geo.Point, tick model.Tick, ingest time.Time) []*model.Snapshot {
	lt, seen := p.last[obj]
	if seen && tick <= lt {
		return nil // duplicate or stale
	}
	if !seen {
		lt = model.NoLastTime
	}
	p.last[obj] = tick
	p.buf = p.asm.Push(model.StampedRecord{
		Object:   obj,
		Loc:      loc,
		Tick:     tick,
		LastTick: lt,
		Ingest:   ingest,
	}, p.buf[:0])
	return p.buf
}

// Flush releases every pending partial snapshot in tick order (end of
// stream).
func (p *Partition) Flush() []*model.Snapshot { return p.asm.FlushAll(nil) }

// ReleaseThrough force-releases the shard's pending partials up to wm (see
// assembler.ReleaseThrough): the driver promises no further records with
// tick <= wm will reach this partition. This is what keeps an empty or
// silent shard from stalling the merged coverage watermark.
func (p *Partition) ReleaseThrough(wm model.Tick) []*model.Snapshot {
	return p.asm.ReleaseThrough(wm, nil)
}

// Pending returns the number of buffered partial snapshots (observability).
func (p *Partition) Pending() int { return p.asm.Pending() }

// EncodeState serializes the partition front — the last-time map and the
// full assembler state — for an aligned checkpoint. The encoding is
// deterministic (maps walked in sorted order) and returns nil for a
// partition that has never seen a record.
func (p *Partition) EncodeState() []byte {
	a := p.asm
	if len(p.last) == 0 && !a.started {
		return nil
	}
	var buf []byte
	buf = append(buf, boolByte(a.started), boolByte(a.released))
	buf = binary.AppendVarint(buf, int64(a.nextTick))
	buf = binary.AppendVarint(buf, int64(a.maxSeen))

	// Last-time map, sorted by object id.
	objs := make([]model.ObjectID, 0, len(p.last))
	for id := range p.last {
		objs = append(objs, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	buf = binary.AppendUvarint(buf, uint64(len(objs)))
	for _, id := range objs {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendVarint(buf, int64(p.last[id]))
	}

	// Pending partial snapshots, sorted by tick.
	ticks := make([]model.Tick, 0, len(a.pending))
	for t := range a.pending {
		ticks = append(ticks, t)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ticks)))
	for _, t := range ticks {
		s := a.pending[t]
		buf = binary.AppendVarint(buf, int64(t))
		buf = appendInstant(buf, s.Ingest)
		buf = binary.AppendUvarint(buf, uint64(len(s.Objects)))
		for i, id := range s.Objects {
			buf = binary.AppendUvarint(buf, uint64(id))
			buf = flow.AppendFloat64(buf, s.Locs[i].X)
			buf = flow.AppendFloat64(buf, s.Locs[i].Y)
		}
	}

	// Per-object coverage state, sorted by object id.
	covs := make([]model.ObjectID, 0, len(a.objects))
	for id := range a.objects {
		covs = append(covs, id)
	}
	sort.Slice(covs, func(i, j int) bool { return covs[i] < covs[j] })
	buf = binary.AppendUvarint(buf, uint64(len(covs)))
	for _, id := range covs {
		st := a.objects[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendVarint(buf, int64(st.frontier))
		buf = binary.AppendUvarint(buf, uint64(len(st.ticks)))
		for _, t := range st.ticks {
			buf = binary.AppendVarint(buf, int64(t))
			buf = binary.AppendVarint(buf, int64(st.lastOf[t]))
		}
	}
	return buf
}

// RestoreState reconstructs a partition front serialized by EncodeState
// into this (freshly built) partition. Slack and SilenceTimeout are
// configuration, not state, and keep their constructor values.
func (p *Partition) RestoreState(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if p.asm.started || len(p.last) > 0 {
		return fmt.Errorf("stream: partition restore after records were pushed")
	}
	a := p.asm
	d := flow.NewDec(data)
	a.started = d.Byte() != 0
	a.released = d.Byte() != 0
	a.nextTick = model.Tick(d.Varint())
	a.maxSeen = model.Tick(d.Varint())

	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("stream: partition state: last-time count %d exceeds payload", n)
	}
	for i := 0; i < n; i++ {
		id := model.ObjectID(d.Uvarint())
		p.last[id] = model.Tick(d.Varint())
	}

	n = int(d.Uvarint())
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("stream: partition state: pending count %d exceeds payload", n)
	}
	for i := 0; i < n; i++ {
		s := &model.Snapshot{Tick: model.Tick(d.Varint())}
		s.Ingest = decodeInstant(d)
		m := int(d.Uvarint())
		if m < 0 || m > d.Remaining()/17 { // id varint + two fixed floats
			return fmt.Errorf("stream: partition state: record count %d exceeds payload", m)
		}
		for j := 0; j < m; j++ {
			id := model.ObjectID(d.Uvarint())
			s.Add(id, geo.Point{X: d.Float64(), Y: d.Float64()})
		}
		a.pending[s.Tick] = s
	}

	n = int(d.Uvarint())
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("stream: partition state: coverage count %d exceeds payload", n)
	}
	for i := 0; i < n; i++ {
		id := model.ObjectID(d.Uvarint())
		st := &objState{
			frontier: model.Tick(d.Varint()),
			lastOf:   make(map[model.Tick]model.Tick),
		}
		m := int(d.Uvarint())
		if m < 0 || m > d.Remaining()/2 { // two varints per entry
			return fmt.Errorf("stream: partition state: tick count %d exceeds payload", m)
		}
		st.ticks = make([]model.Tick, m)
		for j := 0; j < m; j++ {
			t := model.Tick(d.Varint())
			st.ticks[j] = t
			st.lastOf[t] = model.Tick(d.Varint())
		}
		a.objects[id] = st
	}
	return d.Err()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendInstant encodes a time as a presence flag plus Unix nanoseconds.
func appendInstant(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return binary.AppendVarint(buf, t.UnixNano())
}

func decodeInstant(d *flow.Dec) time.Time {
	if d.Byte() == 0 {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
}
