// Checkpoint state for the allocate operator, per key group: the group's
// share of the previous positions plus its share of the open per-tick
// record buffers, each blob prefixed with the subtask's lastFlushed
// cursor. Groups are the object id's key groups, so the state reshards
// with the stage; the cursor is subtask-scoped, so every blob carries it
// and a restore max-merges (a stale cursor from an old delta frame only
// costs one self-correcting phantom delete/re-add cycle, never wrong
// output).
package allocate

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/model"
)

// SnapshotState implements ckpt.Snapshotter (no raw-blob state; keyed
// state goes through SnapshotGroups, which takes dispatch precedence).
func (a *Op) SnapshotState() ([]byte, error) { return nil, nil }

// RestoreState implements ckpt.Snapshotter (no raw-blob state).
func (a *Op) RestoreState([]byte) error { return nil }

// SnapshotGroups implements ckpt.GroupSnapshotter.
func (a *Op) SnapshotGroups(group func(uint64) int) (map[int][]byte, error) {
	groups := a.groupSet(group)
	if len(groups) == 0 {
		// An empty shard's cursor needs no blob: losing it only skips the
		// phantom delete-all, which is vacuous when prev is empty.
		return nil, nil
	}
	out := make(map[int][]byte, len(groups))
	for g := range groups {
		out[g] = a.encodeGroup(g, group)
	}
	return out, nil
}

// CaptureGroups implements ckpt.DeltaSnapshotter: a delta cut re-encodes
// the key groups whose records or positions changed, tombstoning dirty
// groups that emptied. An undirtied group's frame keeps
// an older lastFlushed, and a fully empty shard persists none at all —
// both are safe, because a stale restored cursor only triggers the
// self-correcting phantom delete/re-add cycle (see flush).
func (a *Op) CaptureGroups(group func(uint64) int, id, base uint64, delta bool) (map[int][]byte, []int, error) {
	dirty := a.dirty.Capture(group, id, base, delta)
	if !delta {
		frames, err := a.SnapshotGroups(group)
		return frames, nil, err
	}
	groups := a.groupSet(group)
	frames := make(map[int][]byte, len(dirty))
	var dropped []int
	for g := range dirty {
		if _, has := groups[g]; !has {
			dropped = append(dropped, g)
			continue
		}
		frames[g] = a.encodeGroup(g, group)
	}
	return frames, dropped, nil
}

// RestoreGroup implements ckpt.GroupSnapshotter: one key group's state is
// merged into the operator (groups are disjoint, so entries never
// collide; the cursor max-merges).
func (a *Op) RestoreGroup(data []byte) error {
	d := flow.NewDec(data)
	if lf := model.Tick(d.Varint()); lf > a.lastFlushed {
		a.lastFlushed = lf
	}
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // id varint + two fixed floats
		d.Failf("allocate: position count %d exceeds payload", n)
		return d.Err()
	}
	if a.prev == nil {
		a.prev = make(map[model.ObjectID]geo.Point, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		id := model.ObjectID(d.Uvarint())
		a.prev[id] = geo.Point{X: d.Float64(), Y: d.Float64()}
	}
	ticks := int(d.Uvarint())
	if ticks < 0 || ticks > d.Remaining() {
		d.Failf("allocate: tick count %d exceeds payload", ticks)
		return d.Err()
	}
	for i := 0; i < ticks; i++ {
		t := model.Tick(d.Varint())
		var ingest time.Time
		if d.Byte() != 0 {
			ingest = time.Unix(0, d.Varint())
		}
		m := int(d.Uvarint())
		if m < 0 || m > d.Remaining()/17 {
			d.Failf("allocate: record count %d exceeds payload", m)
			return d.Err()
		}
		p := a.pending[t]
		if p == nil {
			p = &partial{}
			a.pending[t] = p
		}
		if p.ingest.IsZero() || (!ingest.IsZero() && ingest.Before(p.ingest)) {
			p.ingest = ingest
		}
		for j := 0; j < m && d.Err() == nil; j++ {
			p.ids = append(p.ids, model.ObjectID(d.Uvarint()))
			p.locs = append(p.locs, geo.Point{X: d.Float64(), Y: d.Float64()})
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	return d.Err()
}

// groupSet returns the key groups that currently hold state.
func (a *Op) groupSet(group func(uint64) int) map[int]struct{} {
	groups := make(map[int]struct{})
	for id := range a.prev {
		groups[group(uint64(id))] = struct{}{}
	}
	for _, p := range a.pending {
		for _, id := range p.ids {
			groups[group(uint64(id))] = struct{}{}
		}
	}
	return groups
}

// encodeGroup serializes one key group's share of the state.
func (a *Op) encodeGroup(g int, group func(uint64) int) []byte {
	buf := binary.AppendVarint(nil, int64(a.lastFlushed))

	ids := make([]model.ObjectID, 0, len(a.prev))
	for id := range a.prev {
		if group(uint64(id)) == g {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		loc := a.prev[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = flow.AppendFloat64(buf, loc.X)
		buf = flow.AppendFloat64(buf, loc.Y)
	}

	var ticks []model.Tick
	for t, p := range a.pending {
		for _, id := range p.ids {
			if group(uint64(id)) == g {
				ticks = append(ticks, t)
				break
			}
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ticks)))
	for _, t := range ticks {
		p := a.pending[t]
		buf = binary.AppendVarint(buf, int64(t))
		if p.ingest.IsZero() {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, p.ingest.UnixNano())
		}
		count := 0
		for _, id := range p.ids {
			if group(uint64(id)) == g {
				count++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(count))
		for i, id := range p.ids {
			if group(uint64(id)) != g {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(id))
			buf = flow.AppendFloat64(buf, p.locs[i].X)
			buf = flow.AppendFloat64(buf, p.locs[i].Y)
		}
	}
	return buf
}
