package rangejoin

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

const (
	tEps    = 2.0
	tLg     = 8.0
	tMaxPar = 8
)

// testGroup is the key→group mapping a pipeline with MaxParallelism 8
// hands the operator.
func testGroup(k uint64) int { return flow.KeyGroup(k, tMaxPar) }

// harness runs one Op as a single-subtask pipeline, so emissions and
// watermarks flow exactly as in production.
type harness struct {
	p   *flow.Pipeline
	wms chan model.Tick

	mu  sync.Mutex
	got []any
}

func start(op *Op) *harness {
	h := &harness{wms: make(chan model.Tick, 64)}
	h.p = flow.NewPipeline(flow.Config{
		MaxParallelism: tMaxPar,
		Sink: func(d any) {
			h.mu.Lock()
			h.got = append(h.got, d)
			h.mu.Unlock()
		},
		SinkWatermark: func(wm model.Tick) { h.wms <- wm },
	}, flow.StageSpec{Name: "rangejoin", Parallelism: 1, Make: func(int) flow.Operator { return op }})
	h.p.Start()
	return h
}

// watermark submits wm and waits until the operator has forwarded it:
// every emission it triggered has reached the sink, and the subtask is
// idle until the next submit.
func (h *harness) watermark(t *testing.T, wm model.Tick) {
	t.Helper()
	h.p.SubmitWatermark(wm)
	timeout := time.After(10 * time.Second)
	for {
		select {
		case got := <-h.wms:
			if got >= wm {
				return
			}
		case <-timeout:
			t.Fatalf("watermark %d never reached the sink", wm)
		}
	}
}

func (h *harness) emitted() []any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]any(nil), h.got...)
}

// shard is one allocate subtask's view of a tick: its objects, id-sorted.
type shard struct {
	ids  []model.ObjectID
	locs []geo.Point
}

// walk generates ticks of two shards (odd and even ids) of objects doing
// random walks in a small world, each object absent at random ticks, so
// cells hold several objects, split across shards, with enters and
// leaves.
func walk(seed int64, objects, ticks int) [][2]shard {
	r := rand.New(rand.NewSource(seed))
	pos := make([]geo.Point, objects)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * 20, Y: r.Float64() * 20}
	}
	out := make([][2]shard, ticks)
	for tk := range out {
		for i := range pos {
			pos[i].X += r.Float64() - 0.5
			pos[i].Y += r.Float64() - 0.5
			if r.Intn(10) == 0 {
				continue // absent this tick
			}
			s := &out[tk][i%2]
			s.ids = append(s.ids, model.ObjectID(i+1))
			s.locs = append(s.locs, pos[i])
		}
	}
	return out
}

// feeder turns shard ticks into the partial messages allocate emits:
// cell tasks (classic) or cell deltas diffed against each shard's own
// previous positions (incremental).
type feeder struct {
	incremental bool
	prev        [2]map[model.ObjectID]geo.Point
}

func newFeeder(incremental bool) *feeder {
	return &feeder{incremental: incremental, prev: [2]map[model.ObjectID]geo.Point{{}, {}}}
}

func (f *feeder) submit(p *flow.Pipeline, tick model.Tick, i int, s shard) {
	if !f.incremental {
		for _, task := range join.AllocateObjects(s.ids, s.locs, tLg, tEps, grid.UpperHalf) {
			p.Submit(task.Key.Hash(), msg.Cell{Tick: tick, Task: task})
		}
		return
	}
	for _, d := range join.DiffObjects(f.prev[i], s.ids, s.locs, tLg, tEps, grid.UpperHalf) {
		p.Submit(d.Key.Hash(), msg.CellDelta{Tick: tick, Delta: d})
	}
}

// Two shards send partial tasks for the same (tick, cell). Nothing joins
// before the watermark passes the tick; then every cell's pairs are
// exactly RunCellRJC's on the merged task.
func TestPartialTasksJoinOnWatermark(t *testing.T) {
	ticks := walk(1, 60, 1)
	a, b := ticks[0][0], ticks[0][1]
	h := start(New(tEps, geo.L1, RJC))
	const tick = model.Tick(5)
	f := newFeeder(false)
	f.submit(h.p, tick, 0, a)
	f.submit(h.p, tick, 1, b)
	h.watermark(t, tick-1)
	if got := h.emitted(); len(got) != 0 {
		t.Fatalf("%d emissions before the watermark passed the tick", len(got))
	}
	h.watermark(t, tick)
	h.p.Drain()

	var got [][2]int32
	for _, d := range h.emitted() {
		p, ok := d.(msg.Pairs)
		if !ok || p.Tick != tick {
			t.Fatalf("emitted %#v, want msg.Pairs for tick %d", d, tick)
		}
		got = append(got, p.Pairs...)
	}

	// The merged task: both shards' objects in one id-sorted list.
	ids := append(append([]model.ObjectID(nil), a.ids...), b.ids...)
	locs := append(append([]geo.Point(nil), a.locs...), b.locs...)
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return int(ids[i]) - int(ids[j]) })
	var sids []model.ObjectID
	var slocs []geo.Point
	for _, i := range order {
		sids = append(sids, ids[i])
		slocs = append(slocs, locs[i])
	}
	var want [][2]int32
	for _, task := range join.AllocateObjects(sids, slocs, tLg, tEps, grid.UpperHalf) {
		join.RunCellRJC(task, tEps, geo.L1, func(i, j int32) { want = append(want, [2]int32{i, j}) })
	}
	split := 0
	inA := map[grid.Key]bool{}
	for _, task := range join.AllocateObjects(a.ids, a.locs, tLg, tEps, grid.UpperHalf) {
		inA[task.Key] = true
	}
	for _, task := range join.AllocateObjects(b.ids, b.locs, tLg, tEps, grid.UpperHalf) {
		if inA[task.Key] {
			split++
		}
	}
	if len(want) == 0 || split == 0 {
		t.Fatalf("%d pairs, %d cells split across shards; weak test", len(want), split)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("joined %d pairs %v,\nRunCellRJC on the merged tasks %d pairs %v", len(got), got, len(want), want)
	}
}

// A checkpoint taken mid-stream — cell indexes built, one shard's share
// of the next tick still buffered — and restored into a fresh Op must
// reproduce the original's later emissions exactly, in classic and in
// incremental execution.
func TestSnapshotRestoreMidStream(t *testing.T) {
	const cut = 4 // ticks 1..cut-1 released, tick cut half-buffered
	stream := walk(7, 80, 8)
	for _, incremental := range []bool{false, true} {
		mk := func() *Op {
			op := New(tEps, geo.L1, RJC)
			op.Incremental = incremental
			return op
		}
		orig := mk()
		h := start(orig)
		f := newFeeder(incremental)
		for i, tick := range stream[:cut-1] {
			f.submit(h.p, model.Tick(i+1), 0, tick[0])
			f.submit(h.p, model.Tick(i+1), 1, tick[1])
		}
		f.submit(h.p, cut, 0, stream[cut-1][0])
		h.watermark(t, cut-1)
		before := len(h.emitted())
		if before == 0 {
			t.Fatalf("incremental=%v: nothing emitted before the cut; weak test", incremental)
		}

		// The subtask is idle: snapshot its state like a barrier would.
		groups, err := orig.SnapshotGroups(testGroup)
		if err != nil || len(groups) == 0 {
			t.Fatalf("incremental=%v: snapshot = %d groups, %v", incremental, len(groups), err)
		}
		restored := mk()
		for g, blob := range groups {
			if err := restored.RestoreGroup(blob); err != nil {
				t.Fatalf("incremental=%v: restore group %d: %v", incremental, g, err)
			}
		}
		h2 := start(restored)
		f2 := *f // same shard positions: the allocate side is not under test
		f2.prev = [2]map[model.ObjectID]geo.Point{clonePrev(f.prev[0]), clonePrev(f.prev[1])}
		rest := func(h *harness, f *feeder) {
			f.submit(h.p, cut, 1, stream[cut-1][1])
			for i := cut; i < len(stream); i++ {
				f.submit(h.p, model.Tick(i+1), 0, stream[i][0])
				f.submit(h.p, model.Tick(i+1), 1, stream[i][1])
				h.watermark(t, model.Tick(i))
			}
			h.p.Drain()
		}
		rest(h, f)
		rest(h2, &f2)

		want := h.emitted()[before:]
		got := h2.emitted()
		if len(want) == 0 {
			t.Fatalf("incremental=%v: nothing emitted after the cut; weak test", incremental)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("incremental=%v: restored op emitted %d records, original %d (or they differ)",
				incremental, len(got), len(want))
		}
	}
}

func clonePrev(m map[model.ObjectID]geo.Point) map[model.ObjectID]geo.Point {
	out := make(map[model.ObjectID]geo.Point, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Every strict prefix of a group blob holding cells, pending tasks and
// pending deltas must fail RestoreGroup with an error, never panic.
func TestRestoreRejectsTruncated(t *testing.T) {
	stream := walk(3, 40, 3)
	op := New(tEps, geo.L1, RJC)
	op.Incremental = true
	h := start(op)
	f := newFeeder(true)
	for i, tick := range stream[:2] {
		f.submit(h.p, model.Tick(i+1), 0, tick[0])
		f.submit(h.p, model.Tick(i+1), 1, tick[1])
	}
	f.submit(h.p, 3, 0, stream[2][0])
	for _, task := range join.AllocateObjects(stream[2][1].ids, stream[2][1].locs, tLg, tEps, grid.UpperHalf) {
		h.p.Submit(task.Key.Hash(), msg.Cell{Tick: 3, Task: task})
	}
	h.watermark(t, 2)
	if len(op.cells) == 0 || len(op.pendTasks) == 0 || len(op.pendDeltas) == 0 {
		t.Fatalf("state has %d cells, %d task ticks, %d delta ticks; weak test",
			len(op.cells), len(op.pendTasks), len(op.pendDeltas))
	}
	groups, err := op.SnapshotGroups(testGroup)
	if err != nil {
		t.Fatal(err)
	}
	for g, blob := range groups {
		for n := 0; n < len(blob); n++ {
			fresh := New(tEps, geo.L1, RJC)
			if err := fresh.RestoreGroup(blob[:n]); err == nil {
				t.Fatalf("group %d: truncation to %d of %d bytes accepted", g, n, len(blob))
			}
		}
		if err := New(tEps, geo.L1, RJC).RestoreGroup(blob); err != nil {
			t.Fatalf("group %d: full blob rejected: %v", g, err)
		}
	}
	h.p.Drain()
}
