// Checkpoint codec: one key group's share of the persistent cell indexes
// plus the pending (tick, cell) partials buffered ahead of the merged
// watermark. A blob holds three count-prefixed sections: cells, pending
// classic tasks, pending deltas. Everything is sorted (ticks ascending,
// cells in key order, object lists by id) for deterministic bytes.
package rangejoin

import (
	"encoding/binary"
	"slices"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
)

// encodeGroup serializes one key group's state.
func (g *Op) encodeGroup(grp int, group func(uint64) int) []byte {
	inGroup := func(k grid.Key) bool { return group(k.Hash()) == grp }

	var cellKeys []grid.Key
	for k := range g.cells {
		if inGroup(k) {
			cellKeys = append(cellKeys, k)
		}
	}
	sortGridKeys(cellKeys)
	buf := binary.AppendUvarint(nil, uint64(len(cellKeys)))
	for _, k := range cellKeys {
		c := g.cells[k]
		buf = appendKey(buf, k)
		buf = appendEntries(buf, c.Idx.Entries(false))
		buf = appendEntries(buf, c.Idx.Entries(true))
	}

	buf = encodePendSection(buf, g.pendTasks, inGroup, func(buf []byte, t *join.CellTask) []byte {
		buf = appendCellObjs(buf, t.Data)
		return appendCellObjs(buf, t.Queries)
	})
	buf = encodePendSection(buf, g.pendDeltas, inGroup, func(buf []byte, d *join.CellDelta) []byte {
		buf = appendIDs(buf, d.DataDel)
		buf = appendIDs(buf, d.QueryDel)
		buf = appendIDLocs(buf, d.DataAdd)
		return appendIDLocs(buf, d.QueryAdd)
	})
	return buf
}

// encodePendSection writes one pending buffer (tasks or deltas): tick
// count, then per tick the group's cells in key order.
func encodePendSection[V any](buf []byte, pend map[model.Tick]map[grid.Key]*V,
	inGroup func(grid.Key) bool, enc func([]byte, *V) []byte) []byte {
	var ticks []model.Tick
	for t, cells := range pend {
		for k := range cells {
			if inGroup(k) {
				ticks = append(ticks, t)
				break
			}
		}
	}
	slices.Sort(ticks)
	buf = binary.AppendUvarint(buf, uint64(len(ticks)))
	for _, t := range ticks {
		buf = binary.AppendVarint(buf, int64(t))
		var keys []grid.Key
		for k := range pend[t] {
			if inGroup(k) {
				keys = append(keys, k)
			}
		}
		sortGridKeys(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = appendKey(buf, k)
			buf = enc(buf, pend[t][k])
		}
	}
	return buf
}

// RestoreGroup implements ckpt.GroupSnapshotter: one key group's state is
// merged into the operator (groups are disjoint, so cells and pending
// entries never collide across calls).
func (g *Op) RestoreGroup(data []byte) error {
	d := flow.NewDec(data)
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining() {
		d.Failf("rangejoin: cell count %d exceeds payload", n)
		return d.Err()
	}
	if g.cells == nil {
		g.cells = make(map[grid.Key]*join.IncCell, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		k := decodeKey(d)
		c := join.NewIncCell(g.Eps)
		if err := restoreEntries(d, c.Idx, false); err != nil {
			return err
		}
		if err := restoreEntries(d, c.Idx, true); err != nil {
			return err
		}
		if d.Err() == nil {
			g.cells[k] = c
		}
	}

	tt := int(d.Uvarint())
	if tt < 0 || tt > d.Remaining() {
		d.Failf("rangejoin: task tick count %d exceeds payload", tt)
		return d.Err()
	}
	for i := 0; i < tt && d.Err() == nil; i++ {
		t := model.Tick(d.Varint())
		nc := int(d.Uvarint())
		if nc < 0 || nc > d.Remaining() {
			d.Failf("rangejoin: task cell count %d exceeds payload", nc)
			return d.Err()
		}
		for j := 0; j < nc && d.Err() == nil; j++ {
			k := decodeKey(d)
			task := &join.CellTask{Key: k}
			task.Data = decodeCellObjs(d)
			task.Queries = decodeCellObjs(d)
			if d.Err() != nil {
				return d.Err()
			}
			if g.pendTasks == nil {
				g.pendTasks = make(map[model.Tick]map[grid.Key]*join.CellTask)
			}
			if g.pendTasks[t] == nil {
				g.pendTasks[t] = make(map[grid.Key]*join.CellTask)
			}
			g.pendTasks[t][k] = task
		}
	}

	dt := int(d.Uvarint())
	if dt < 0 || dt > d.Remaining() {
		d.Failf("rangejoin: delta tick count %d exceeds payload", dt)
		return d.Err()
	}
	for i := 0; i < dt && d.Err() == nil; i++ {
		t := model.Tick(d.Varint())
		nc := int(d.Uvarint())
		if nc < 0 || nc > d.Remaining() {
			d.Failf("rangejoin: delta cell count %d exceeds payload", nc)
			return d.Err()
		}
		for j := 0; j < nc && d.Err() == nil; j++ {
			k := decodeKey(d)
			delta := &join.CellDelta{Key: k}
			delta.DataDel = decodeIDs(d)
			delta.QueryDel = decodeIDs(d)
			delta.DataAdd = decodeIDLocs(d)
			delta.QueryAdd = decodeIDLocs(d)
			if d.Err() != nil {
				return d.Err()
			}
			if g.pendDeltas == nil {
				g.pendDeltas = make(map[model.Tick]map[grid.Key]*join.CellDelta)
			}
			if g.pendDeltas[t] == nil {
				g.pendDeltas[t] = make(map[grid.Key]*join.CellDelta)
			}
			g.pendDeltas[t][k] = delta
		}
	}
	return d.Err()
}

func appendEntries(buf []byte, os []join.IDLoc) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(os)))
	for _, o := range os {
		buf = binary.AppendUvarint(buf, uint64(o.ID))
		buf = flow.AppendFloat64(buf, o.Loc.X)
		buf = flow.AppendFloat64(buf, o.Loc.Y)
	}
	return buf
}

func restoreEntries(d *flow.Dec, x *join.CellIndex, query bool) error {
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // id varint + two floats per entry
		d.Failf("rangejoin: cell entry count %d exceeds payload", n)
		return d.Err()
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		id := model.ObjectID(d.Uvarint())
		loc := geo.Point{X: d.Float64(), Y: d.Float64()}
		if d.Err() == nil {
			x.Insert(id, loc, query)
		}
	}
	return d.Err()
}

func sortGridKeys(keys []grid.Key) {
	slices.SortFunc(keys, func(a, b grid.Key) int {
		if a.X != b.X {
			return int(a.X) - int(b.X)
		}
		return int(a.Y) - int(b.Y)
	})
}

func appendKey(buf []byte, k grid.Key) []byte {
	buf = binary.AppendVarint(buf, int64(k.X))
	return binary.AppendVarint(buf, int64(k.Y))
}

func decodeKey(d *flow.Dec) grid.Key {
	return grid.Key{X: int32(d.Varint()), Y: int32(d.Varint())}
}

func appendCellObjs(buf []byte, os []join.CellObj) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(os)))
	for _, o := range os {
		buf = binary.AppendVarint(buf, int64(o.Idx))
		buf = flow.AppendFloat64(buf, o.Loc.X)
		buf = flow.AppendFloat64(buf, o.Loc.Y)
	}
	return buf
}

func decodeCellObjs(d *flow.Dec) []join.CellObj {
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // idx varint + two fixed floats
		d.Failf("rangejoin: cell object count %d exceeds payload", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	os := make([]join.CellObj, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		os = append(os, join.CellObj{
			Idx: int32(d.Varint()),
			Loc: geo.Point{X: d.Float64(), Y: d.Float64()},
		})
	}
	return os
}

func appendIDs(buf []byte, ids []model.ObjectID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

func decodeIDs(d *flow.Dec) []model.ObjectID {
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining() {
		d.Failf("rangejoin: id count %d exceeds payload", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	ids := make([]model.ObjectID, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ids = append(ids, model.ObjectID(d.Uvarint()))
	}
	return ids
}

func appendIDLocs(buf []byte, os []join.IDLoc) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(os)))
	for _, o := range os {
		buf = binary.AppendUvarint(buf, uint64(o.ID))
		buf = flow.AppendFloat64(buf, o.Loc.X)
		buf = flow.AppendFloat64(buf, o.Loc.Y)
	}
	return buf
}

func decodeIDLocs(d *flow.Dec) []join.IDLoc {
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // id varint + two fixed floats
		d.Failf("rangejoin: idloc count %d exceeds payload", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	os := make([]join.IDLoc, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		os = append(os, join.IDLoc{
			ID:  model.ObjectID(d.Uvarint()),
			Loc: geo.Point{X: d.Float64(), Y: d.Float64()},
		})
	}
	return os
}
