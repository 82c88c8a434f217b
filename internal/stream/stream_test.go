package stream

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

var t0 = time.Date(2019, 6, 1, 13, 0, 20, 0, time.UTC)

func rec(id model.ObjectID, offsetSec float64, x, y float64) model.Record {
	return model.Record{
		Object: id,
		Loc:    geo.Point{X: x, Y: y},
		Time:   t0.Add(time.Duration(offsetSec * float64(time.Second))),
	}
}

// Paper example (Section 3.1): with 5s intervals starting 13:00:20, the
// series 13:00:21, :24, :28, :32, :42 discretizes to <0, 0, 1, 2, 4>.
func TestDiscretizerPaperExample(t *testing.T) {
	d := NewDiscretizer(t0, 5*time.Second)
	offsets := []float64{1, 4, 8, 12, 22}
	want := []model.Tick{0, 0, 1, 2, 4}
	var got []model.Tick
	for _, off := range offsets {
		got = append(got, d.Tick(t0.Add(time.Duration(off*float64(time.Second)))))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ticks = %v, want %v", got, want)
	}
}

// Records of one object within one interval discretize to the same tick;
// the source partition keeps the first, and the object's last-time chain
// proves the ticks it skipped.
func TestDiscretizeDeduplicatesWithinInterval(t *testing.T) {
	d := NewDiscretizer(t0, 5*time.Second)
	p := NewPartition(0, 0)
	var out []*model.Snapshot
	push := func(r model.Record) {
		out = append(out, p.Push(r.Object, r.Loc, d.Tick(r.Time), t0)...)
	}
	push(rec(1, 1, 0, 0))  // tick 0
	push(rec(1, 4, 1, 1))  // tick 0 again: dropped
	push(rec(1, 8, 2, 2))  // tick 1
	push(rec(1, 17, 3, 3)) // tick 3: the chain says tick 2 was skipped
	push(rec(2, 17, 4, 4)) // a fresh object has its own chain
	out = append(out, p.Flush()...)

	want := []struct {
		tick model.Tick
		objs []model.ObjectID
		locs []geo.Point
	}{
		{0, []model.ObjectID{1}, []geo.Point{{X: 0, Y: 0}}},
		{1, []model.ObjectID{1}, []geo.Point{{X: 2, Y: 2}}},
		{2, nil, nil},
		{3, []model.ObjectID{1, 2}, []geo.Point{{X: 3, Y: 3}, {X: 4, Y: 4}}},
	}
	if len(out) != len(want) {
		t.Fatalf("released %d snapshots, want %d", len(out), len(want))
	}
	for i, w := range want {
		s := out[i]
		if s.Tick != w.tick || !reflect.DeepEqual(s.Objects, w.objs) || !reflect.DeepEqual(s.Locs, w.locs) {
			t.Errorf("snapshot %d = tick %d %v %v, want tick %d %v %v",
				i, s.Tick, s.Objects, s.Locs, w.tick, w.objs, w.locs)
		}
	}
}

func TestDiscretizerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval should panic")
		}
	}()
	NewDiscretizer(t0, 0)
}

func TestValidate(t *testing.T) {
	if err := Validate(model.StampedRecord{Tick: 3, LastTick: 2}); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if err := Validate(model.StampedRecord{Tick: -1, LastTick: model.NoLastTime}); err == nil {
		t.Error("negative tick accepted")
	}
	if err := Validate(model.StampedRecord{Tick: 3, LastTick: 3}); err == nil {
		t.Error("last tick == tick accepted")
	}
}

func sr(id model.ObjectID, tick, last model.Tick) model.StampedRecord {
	return model.StampedRecord{
		Object:   id,
		Loc:      geo.Point{X: float64(id), Y: float64(tick)},
		Tick:     tick,
		LastTick: last,
	}
}

// Paper example (Section 4): having received r1 and r3 (r3's last time is
// 2), the system must wait for r2; having received r1, r2, r3 and r5 (r5's
// last time is 3), it need not wait for r4.
func TestAssemblerPaperExample(t *testing.T) {
	a := newAssembler()
	var out []*model.Snapshot

	out = a.Push(sr(1, 1, model.NoLastTime), out)
	out = a.Push(sr(1, 3, 2), out) // proves r2 exists, still in flight
	// Snapshot 1 is complete and releases; snapshot 2 must wait for r2.
	if len(out) != 1 || out[0].Tick != 1 {
		t.Fatalf("snapshot 1 should release, got %d snapshots", len(out))
	}
	out = a.Push(sr(1, 2, 1), out) // r2 arrives
	// Ticks 1 and 2 can now release (tick 3 is the max seen, held back).
	if len(out) != 2 || out[0].Tick != 1 || out[1].Tick != 2 {
		t.Fatalf("after r2: %d snapshots", len(out))
	}
	out = a.Push(sr(1, 5, 3), out) // last time 3: no record at 4 exists
	// Ticks 3 and 4 release (4 as an empty snapshot).
	if len(out) != 4 || out[2].Tick != 3 || out[3].Tick != 4 {
		t.Fatalf("after r5: %d snapshots: %+v", len(out), out)
	}
	if out[3].Len() != 0 {
		t.Errorf("tick 4 should be empty, has %d", out[3].Len())
	}
	out = a.FlushAll(out)
	if len(out) != 5 || out[4].Tick != 5 {
		t.Fatalf("after flush: %d snapshots", len(out))
	}
}

func TestAssemblerMultiObjectInterleaving(t *testing.T) {
	a := newAssembler()
	a.Slack = 1 // absorb object 2's late first record
	var out []*model.Snapshot
	// Object 2's tick-1 record arrives after object 1 has moved well past;
	// object 2's tick-2 record proves the tick-1 record is in flight.
	out = a.Push(sr(1, 1, model.NoLastTime), out)
	out = a.Push(sr(1, 2, 1), out)
	out = a.Push(sr(2, 2, 1), out) // object 2 reported at 1; not yet here
	out = a.Push(sr(1, 4, 2), out) // advances maxSeen beyond the slack
	if len(out) != 0 {
		t.Fatalf("tick 1 must wait for object 2's record, got %d", len(out))
	}
	out = a.Push(sr(2, 1, model.NoLastTime), out)
	// Ticks 1 and 2 release; ticks 3 (empty) and 4 are held by the slack.
	if len(out) != 2 || out[0].Tick != 1 || out[0].Len() != 2 {
		t.Fatalf("tick 1 should release with both objects: %+v", out)
	}
	// Objects are sorted by id within the snapshot.
	if out[0].Objects[0] != 1 || out[0].Objects[1] != 2 {
		t.Errorf("objects = %v", out[0].Objects)
	}
	if out[1].Tick != 2 || out[1].Len() != 2 {
		t.Errorf("tick 2: %+v", out[1])
	}
}

func TestAssemblerDropsLateRecords(t *testing.T) {
	a := newAssembler()
	var out []*model.Snapshot
	out = a.Push(sr(1, 5, model.NoLastTime), out)
	out = a.Push(sr(1, 6, 5), out)
	out = a.Push(sr(1, 7, 6), out)
	if len(out) != 2 {
		t.Fatalf("expected ticks 5,6 released, got %d", len(out))
	}
	// A record for tick 5 (already released) is dropped.
	n := len(out)
	out = a.Push(sr(9, 5, model.NoLastTime), out)
	if len(out) != n {
		t.Error("late record should not produce output")
	}
}

// The full pipeline property: reorder a protocol-consistent record stream
// with bounded tick displacement W and run the assembler with Slack = W;
// it must reproduce the exact per-tick snapshots (objects at each tick),
// in order, after a final flush.
func TestAssemblerShuffleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nObjects := 1 + rng.Intn(6)
		nTicks := 1 + rng.Intn(12)
		slack := model.Tick(rng.Intn(4))

		// Ground truth: which objects report at which ticks.
		reports := make(map[model.Tick][]model.ObjectID)
		var records []model.StampedRecord
		for id := 1; id <= nObjects; id++ {
			last := model.NoLastTime
			for tk := model.Tick(0); tk < model.Tick(nTicks); tk++ {
				if rng.Intn(3) == 0 {
					continue // object skips this tick
				}
				records = append(records, sr(model.ObjectID(id), tk, last))
				reports[tk] = append(reports[tk], model.ObjectID(id))
				last = tk
			}
		}
		if len(records) == 0 {
			return true
		}
		// Bounded-displacement reorder: sort by tick + jitter in [0, W],
		// ties shuffled. A record with tick <= t always arrives before any
		// record with tick > t + W.
		rng.Shuffle(len(records), func(i, j int) {
			records[i], records[j] = records[j], records[i]
		})
		keys := make(map[int]model.Tick, len(records))
		order := make([]int, len(records))
		for i := range records {
			order[i] = i
			keys[i] = records[i].Tick + model.Tick(rng.Intn(int(slack)+1))
		}
		sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

		a := newAssembler()
		a.Slack = slack
		var out []*model.Snapshot
		for _, i := range order {
			out = a.Push(records[i], out)
		}
		out = a.FlushAll(out)

		// Snapshots must be in strictly increasing tick order and match the
		// ground truth for every tick that had reports.
		seen := map[model.Tick][]model.ObjectID{}
		lastTick := model.Tick(-1 << 62)
		for _, s := range out {
			if s.Tick <= lastTick {
				t.Logf("out of order: %d after %d", s.Tick, lastTick)
				return false
			}
			lastTick = s.Tick
			seen[s.Tick] = append([]model.ObjectID(nil), s.Objects...)
		}
		for tk, ids := range reports {
			got := seen[tk]
			if len(got) != len(ids) {
				t.Logf("seed %d tick %d: got %v want %d objects", seed, tk, got, len(ids))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssemblerPendingAndEmptyFlush(t *testing.T) {
	a := newAssembler()
	if a.Pending() != 0 {
		t.Error("fresh assembler has pending snapshots")
	}
	out := a.FlushAll(nil)
	if len(out) != 0 {
		t.Errorf("flush of empty assembler: %v", out)
	}
	out = a.Push(sr(1, 4, model.NoLastTime), out)
	if a.Pending() != 1 {
		t.Errorf("pending = %d", a.Pending())
	}
}

func TestDiscretizeAssembleEndToEnd(t *testing.T) {
	d := NewDiscretizer(t0, time.Second)
	p := NewPartition(0, 0)
	// Two objects reporting every second for 5 seconds, arrival slightly
	// jumbled between objects.
	var recs []model.Record
	for s := 0; s < 5; s++ {
		for id := model.ObjectID(1); id <= 2; id++ {
			recs = append(recs, rec(id, float64(s)+0.2, float64(id), float64(s)))
		}
	}
	// Swap a few adjacent records across objects.
	recs[2], recs[3] = recs[3], recs[2]
	var out []*model.Snapshot
	for _, r := range recs {
		out = append(out, p.Push(r.Object, r.Loc, d.Tick(r.Time), t0)...)
	}
	out = append(out, p.Flush()...)
	if len(out) != 5 {
		t.Fatalf("snapshots = %d, want 5", len(out))
	}
	for i, s := range out {
		if s.Tick != model.Tick(i) || s.Len() != 2 {
			t.Errorf("snapshot %d: tick=%d len=%d", i, s.Tick, s.Len())
		}
	}
}
