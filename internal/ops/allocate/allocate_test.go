package allocate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

const (
	tEps = 6.0
	tLg  = 4 * tEps
)

// churn is a randomized workload: objects (ids spanning the uint32 range)
// enter, move, fall silent and return across ticks. Snapshots are the
// oracle view — exactly the objects present at each tick, id-sorted.
func churn(seed int64, objects, ticks int) []*model.Snapshot {
	r := rand.New(rand.NewSource(seed))
	ids := make([]model.ObjectID, objects)
	for i := range ids {
		if i%3 == 0 {
			// High ids exercise the int32(id) Idx round trip downstream.
			ids[i] = model.ObjectID(1<<31 + uint32(r.Intn(1<<20)))
		} else {
			ids[i] = model.ObjectID(r.Intn(1 << 16))
		}
	}
	pos := make(map[model.ObjectID]geo.Point, objects)
	for _, id := range ids {
		pos[id] = geo.Point{X: r.Float64() * 200, Y: r.Float64() * 200}
	}
	snaps := make([]*model.Snapshot, ticks)
	for t := 0; t < ticks; t++ {
		s := &model.Snapshot{Tick: model.Tick(t)}
		for _, id := range ids {
			if r.Float64() < 0.15 {
				continue // silent this tick
			}
			if r.Float64() < 0.5 {
				p := pos[id]
				p.X += r.Float64()*8 - 4
				p.Y += r.Float64()*8 - 4
				pos[id] = p
			}
			s.Add(id, pos[id])
		}
		sort.Sort(snapByID{s})
		snaps[t] = s
	}
	return snaps
}

type snapByID struct{ s *model.Snapshot }

func (b snapByID) Len() int           { return len(b.s.Objects) }
func (b snapByID) Less(i, j int) bool { return b.s.Objects[i] < b.s.Objects[j] }
func (b snapByID) Swap(i, j int) {
	b.s.Objects[i], b.s.Objects[j] = b.s.Objects[j], b.s.Objects[i]
	b.s.Locs[i], b.s.Locs[j] = b.s.Locs[j], b.s.Locs[i]
}

// tickKey identifies one (tick, cell) emission bucket.
type tickKey struct {
	t model.Tick
	k grid.Key
}

// canonDelta is a cell delta with every list id-sorted (nil for empty) —
// the shard-order-independent comparison form.
type canonDelta struct {
	DataDel, QueryDel []model.ObjectID
	DataAdd, QueryAdd []join.IDLoc
}

func sortIDs(ids []model.ObjectID) []model.ObjectID {
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortIDLocs(os []join.IDLoc) []join.IDLoc {
	if len(os) == 0 {
		return nil
	}
	sort.Slice(os, func(i, j int) bool { return os[i].ID < os[j].ID })
	return os
}

func (c *canonDelta) canon() {
	c.DataDel = sortIDs(c.DataDel)
	c.QueryDel = sortIDs(c.QueryDel)
	c.DataAdd = sortIDLocs(c.DataAdd)
	c.QueryAdd = sortIDLocs(c.QueryAdd)
}

// canonTask is a classic cell task with objects id-sorted and Idx carrying
// the object id (the front-end convention; the oracle's positional Idx is
// translated before comparison).
type canonTask struct {
	Data, Queries []join.CellObj
}

func sortObjs(os []join.CellObj) []join.CellObj {
	if len(os) == 0 {
		return nil
	}
	sort.Slice(os, func(i, j int) bool { return uint32(os[i].Idx) < uint32(os[j].Idx) })
	return os
}

// runShards feeds the snapshots as records through a sharded allocate
// stage at the given parallelism, issuing a source watermark every wmEvery
// ticks (and once at the end), replaying already-flushed ticks when replay
// is set. It returns the merged per-(tick, cell) deltas or tasks plus the
// merged per-tick meta object lists.
func runShards(t *testing.T, snaps []*model.Snapshot, par, wmEvery int, incremental, replay bool) (
	map[tickKey]*canonDelta, map[tickKey]*canonTask, map[model.Tick][]model.ObjectID) {
	t.Helper()
	var (
		mu     sync.Mutex
		deltas = map[tickKey]*canonDelta{}
		tasks  = map[tickKey]*canonTask{}
		metas  = map[model.Tick][]model.ObjectID{}
	)
	stats := NewStats(par)
	p := flow.NewPipeline(flow.Config{
		Sink: func(v any) {
			mu.Lock()
			defer mu.Unlock()
			switch m := v.(type) {
			case msg.CellDelta:
				k := tickKey{m.Tick, m.Delta.Key}
				d := deltas[k]
				if d == nil {
					d = &canonDelta{}
					deltas[k] = d
				}
				d.DataDel = append(d.DataDel, m.Delta.DataDel...)
				d.QueryDel = append(d.QueryDel, m.Delta.QueryDel...)
				d.DataAdd = append(d.DataAdd, m.Delta.DataAdd...)
				d.QueryAdd = append(d.QueryAdd, m.Delta.QueryAdd...)
			case msg.Cell:
				k := tickKey{m.Tick, m.Task.Key}
				c := tasks[k]
				if c == nil {
					c = &canonTask{}
					tasks[k] = c
				}
				c.Data = append(c.Data, m.Task.Data...)
				c.Queries = append(c.Queries, m.Task.Queries...)
			case msg.Meta:
				metas[m.Tick] = append(metas[m.Tick], m.Objects...)
			default:
				t.Errorf("sink got %T", v)
			}
		},
	},
		flow.StageSpec{Name: "allocate", Parallelism: par, OutBatch: 8,
			Make: func(sub int) flow.Operator {
				return New(tLg, tEps, grid.UpperHalf, incremental, sub, stats)
			}},
	)
	p.Start()
	push := func(s *model.Snapshot) {
		for i, id := range s.Objects {
			p.Submit(uint64(id), msg.Rec{Object: id, Loc: s.Locs[i], Tick: s.Tick})
		}
	}
	for ti, s := range snaps {
		push(s)
		if (ti+1)%wmEvery == 0 {
			p.SubmitWatermark(s.Tick)
			if replay && ti > 0 {
				// Duplicate a flushed tick: the records buffer again but the
				// flush cursor must drop them without re-emitting.
				push(snaps[ti-1])
			}
		}
	}
	p.Drain()
	for _, d := range deltas {
		d.canon()
	}
	for _, c := range tasks {
		c.Data = sortObjs(c.Data)
		c.Queries = sortObjs(c.Queries)
	}
	for tk := range metas {
		metas[tk] = sortIDs(metas[tk])
	}
	return deltas, tasks, metas
}

// The sharded front end must emit, per (tick, cell), exactly the deltas
// the whole-snapshot diff oracle computes — across shard counts, watermark
// cadences (forcing phantom silent-stretch deletes), and replayed ticks.
func TestFrontEndDiffMatchesSnapshotOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		snaps := churn(seed, 40, 30)

		// Oracle: global diff over full snapshots.
		want := map[tickKey]*canonDelta{}
		prev := map[model.ObjectID]geo.Point{}
		for _, s := range snaps {
			for _, d := range join.DiffSnapshot(prev, s, tLg, tEps, grid.UpperHalf) {
				want[tickKey{s.Tick, d.Key}] = &canonDelta{
					DataDel: d.DataDel, QueryDel: d.QueryDel,
					DataAdd: d.DataAdd, QueryAdd: d.QueryAdd,
				}
			}
		}
		for _, d := range want {
			d.canon()
		}

		for _, par := range []int{1, 2, 4} {
			for _, wmEvery := range []int{1, 3} {
				for _, replay := range []bool{false, true} {
					got, _, metas := runShards(t, snaps, par, wmEvery, true, replay)
					name := fmt.Sprintf("seed=%d par=%d wmEvery=%d replay=%v", seed, par, wmEvery, replay)
					if len(got) != len(want) {
						t.Errorf("%s: %d (tick,cell) deltas, oracle has %d", name, len(got), len(want))
					}
					for k, w := range want {
						if g := got[k]; g == nil || !reflect.DeepEqual(g, w) {
							t.Fatalf("%s: tick %d cell %v delta differs:\n  got  %+v\n  want %+v",
								name, k.t, k.k, got[k], w)
						}
					}
					for _, s := range snaps {
						if !reflect.DeepEqual(metas[s.Tick], sortIDs(append([]model.ObjectID(nil), s.Objects...))) {
							t.Fatalf("%s: tick %d meta objects differ", name, s.Tick)
						}
					}
				}
			}
		}
	}
}

// Classic mode: the merged per-(tick, cell) tasks must equal the oracle's
// whole-snapshot allocation with positional indexes translated to ids.
func TestFrontEndAllocateMatchesSnapshotOracle(t *testing.T) {
	snaps := churn(7, 40, 25)

	want := map[tickKey]*canonTask{}
	for _, s := range snaps {
		for _, task := range join.AllocateSnapshot(s, tLg, tEps, grid.UpperHalf) {
			c := &canonTask{}
			for _, o := range task.Data {
				c.Data = append(c.Data, join.CellObj{Idx: int32(s.Objects[o.Idx]), Loc: o.Loc})
			}
			for _, o := range task.Queries {
				c.Queries = append(c.Queries, join.CellObj{Idx: int32(s.Objects[o.Idx]), Loc: o.Loc})
			}
			c.Data = sortObjs(c.Data)
			c.Queries = sortObjs(c.Queries)
			want[tickKey{s.Tick, task.Key}] = c
		}
	}

	for _, par := range []int{1, 3} {
		for _, wmEvery := range []int{1, 4} {
			_, got, metas := runShards(t, snaps, par, wmEvery, false, true)
			name := fmt.Sprintf("par=%d wmEvery=%d", par, wmEvery)
			if len(got) != len(want) {
				t.Errorf("%s: %d (tick,cell) tasks, oracle has %d", name, len(got), len(want))
			}
			for k, w := range want {
				if g := got[k]; g == nil || !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: tick %d cell %v task differs:\n  got  %+v\n  want %+v",
						name, k.t, k.k, got[k], w)
				}
			}
			for _, s := range snaps {
				if !reflect.DeepEqual(metas[s.Tick], sortIDs(append([]model.ObjectID(nil), s.Objects...))) {
					t.Fatalf("%s: tick %d meta objects differ", name, s.Tick)
				}
			}
		}
	}
}

// Front-end stats must classify the incremental transitions: a fully
// churning workload produces enters, moves and leaves, and every subtask
// reports flush progress through the final watermark.
func TestFrontEndStats(t *testing.T) {
	snaps := churn(11, 30, 20)
	const par = 2
	stats := NewStats(par)
	p := flow.NewPipeline(flow.Config{Sink: func(any) {}},
		flow.StageSpec{Name: "allocate", Parallelism: par,
			Make: func(sub int) flow.Operator {
				return New(tLg, tEps, grid.UpperHalf, true, sub, stats)
			}},
	)
	p.Start()
	for _, s := range snaps {
		for i, id := range s.Objects {
			p.Submit(uint64(id), msg.Rec{Object: id, Loc: s.Locs[i], Tick: s.Tick})
		}
		p.SubmitWatermark(s.Tick)
	}
	p.Drain()
	if stats.Enters.Load() == 0 || stats.Moves.Load() == 0 || stats.Leaves.Load() == 0 {
		t.Errorf("stats enters=%d moves=%d leaves=%d, want all positive",
			stats.Enters.Load(), stats.Moves.Load(), stats.Leaves.Load())
	}
	last := int64(snaps[len(snaps)-1].Tick)
	for i := 0; i < par; i++ {
		if f := stats.Flushed[i].Load(); f != last+1 {
			t.Errorf("subtask %d flushed mark %d, want %d", i, f, last+1)
		}
	}
}
