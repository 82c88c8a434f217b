package icpe

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/enum"
	"repro/internal/model"
	"repro/internal/ref"
	"repro/internal/trajio"
)

func TestDetectorEndToEndFromRecords(t *testing.T) {
	// Planted workload converted to wall-clock GPS records, pushed through
	// the full ingestion path (discretize -> source -> pipeline).
	cfg := datagen.DefaultPlanted(5)
	cfg.NumGroups = 2
	cfg.GroupSize = 5
	cfg.NumNoise = 15
	sim := datagen.NewPlanted(cfg)
	snaps := datagen.Snapshots(sim, 100)

	origin := time.Date(2019, 7, 1, 8, 0, 0, 0, time.UTC)
	det, err := New(Options{
		M: 4, K: 6, L: 3, G: 3,
		Eps: cfg.Eps, MinPts: 4,
		Interval: time.Second,
		Origin:   origin,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		for i, id := range s.Objects {
			det.Push(Record{
				Object: id,
				Loc:    s.Locs[i],
				Time:   origin.Add(time.Duration(s.Tick) * time.Second),
			})
		}
	}
	res := det.Close()
	if res.Stats.Snapshots == 0 {
		t.Fatal("no snapshots processed")
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns detected")
	}
	// Both planted groups must be among the detected object sets.
	keys := map[string]bool{}
	for _, p := range res.Patterns {
		keys[p.Key()] = true
	}
	for g := 0; g < 2; g++ {
		want := model.Pattern{Objects: sim.GroupMembers(g)}.Key()
		if !keys[want] {
			t.Errorf("group %d (%s) not detected", g, want)
		}
	}
	if res.Stats.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Stats.Throughput)
	}
	if res.Stats.MeanLatency <= 0 {
		t.Errorf("latency = %v", res.Stats.MeanLatency)
	}
}

// The detector's Push path — discretization, then last-time assembly in
// the dataflow's source partitions — must find exactly the patterns of the
// sequential reference over the same stream, at one partition (the
// default) and at several.
func TestDetectorPartitionedSourceMatchesClassic(t *testing.T) {
	cfg := datagen.DefaultPlanted(5)
	cfg.NumGroups = 2
	cfg.GroupSize = 5
	cfg.NumNoise = 15
	sim := datagen.NewPlanted(cfg)
	snaps := datagen.Snapshots(sim, 100)
	origin := time.Date(2019, 7, 1, 8, 0, 0, 0, time.UTC)

	run := func(parts int) []Pattern {
		det, err := New(Options{
			M: 4, K: 6, L: 3, G: 3,
			Eps: cfg.Eps, MinPts: 4,
			Interval:         time.Second,
			Origin:           origin,
			SourcePartitions: parts,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snaps {
			for i, id := range s.Objects {
				det.Push(Record{
					Object: id,
					Loc:    s.Locs[i],
					Time:   origin.Add(time.Duration(s.Tick) * time.Second),
				})
			}
		}
		res := det.Close()
		if res.Stats.Snapshots != 100 {
			t.Errorf("parts=%d: %d snapshots, want 100", parts, res.Stats.Snapshots)
		}
		return res.Patterns
	}

	want := sortedPatternsCSV(t, ref.Patterns(snaps, model.Constraints{M: 4, K: 6, L: 3, G: 3},
		cfg.Eps, 4*cfg.Eps, L1, 4, enum.NewFBA))
	if len(want) == 0 {
		t.Fatal("reference found no patterns; weak test")
	}
	for _, parts := range []int{0, 3} {
		if got := sortedPatternsCSV(t, run(parts)); !bytes.Equal(got, want) {
			t.Errorf("parts=%d: pattern output differs from the sequential reference", parts)
		}
	}
}

// sortedPatternsCSV renders patterns in their canonical form (sorted CSV).
func sortedPatternsCSV(t *testing.T, ps []Pattern) []byte {
	t.Helper()
	enum.SortPatterns(ps)
	var buf bytes.Buffer
	if err := trajio.WritePatternsCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDetectorPushSnapshotPath(t *testing.T) {
	cfg := datagen.DefaultPlanted(9)
	sim := datagen.NewPlanted(cfg)
	det, err := New(Options{
		M: 4, K: 6, L: 3, G: 3,
		Eps: cfg.Eps, MinPts: 4,
		Method: MethodVBA,
	})
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for _, s := range datagen.Snapshots(sim, 80) {
		det.PushSnapshot(s)
		streamed++
	}
	res := det.Close()
	if res.Stats.Snapshots != int64(streamed) {
		t.Errorf("snapshots = %d, want %d", res.Stats.Snapshots, streamed)
	}
	if res.Stats.Patterns == 0 {
		t.Error("no patterns detected")
	}
}

func TestDetectorOnPatternStreaming(t *testing.T) {
	cfg := datagen.DefaultPlanted(11)
	sim := datagen.NewPlanted(cfg)
	noCollect := false
	var live int
	det, err := New(Options{
		M: 4, K: 6, L: 3, G: 3,
		Eps: cfg.Eps, MinPts: 4,
		CollectPatterns: &noCollect,
		OnPattern:       func(Pattern) { live++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range datagen.Snapshots(sim, 80) {
		det.PushSnapshot(s)
	}
	res := det.Close()
	if len(res.Patterns) != 0 {
		t.Errorf("collection disabled but %d patterns stored", len(res.Patterns))
	}
	if int64(live) != res.Stats.Patterns {
		t.Errorf("live callbacks %d != %d", live, res.Stats.Patterns)
	}
	if live == 0 {
		t.Error("no live patterns")
	}
}

func TestDetectorInvalidOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := New(Options{M: 1, K: 1, L: 1, G: 1, Eps: 1}); err == nil {
		t.Error("M=1 accepted")
	}
}

func TestDetectorAutoOriginFromFirstRecord(t *testing.T) {
	det, err := New(Options{
		M: 2, K: 2, L: 1, G: 1,
		Eps: 5, MinPts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2019, 3, 3, 12, 0, 0, 0, time.UTC)
	for s := 0; s < 10; s++ {
		for id := ObjectID(1); id <= 2; id++ {
			det.Push(Record{
				Object: id,
				Loc:    Point{X: float64(s), Y: float64(id)},
				Time:   base.Add(time.Duration(s) * time.Second),
			})
		}
	}
	res := det.Close()
	if res.Stats.Snapshots == 0 {
		t.Fatal("auto-origin path processed no snapshots")
	}
	if len(res.Patterns) == 0 {
		t.Error("two co-moving objects should form a pattern")
	}
}

// The public API exposes checkpoint/resume: a detector with CheckpointDir
// leaves a completed checkpoint behind on Close, and a resuming detector
// reports the replay cut via ResumeTick and skips replayed input.
func TestDetectorCheckpointResume(t *testing.T) {
	cfg := datagen.DefaultPlanted(17)
	cfg.NumGroups = 2
	cfg.GroupSize = 5
	cfg.NumNoise = 15
	sim := datagen.NewPlanted(cfg)
	snaps := datagen.Snapshots(sim, 60)

	dir := t.TempDir()
	mk := func(resume bool) *Detector {
		det, err := New(Options{
			M: 4, K: 6, L: 3, G: 3,
			Eps: cfg.Eps, MinPts: 4,
			CheckpointDir:      dir,
			CheckpointInterval: 10,
			CheckpointResume:   resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	det := mk(false)
	if _, ok := det.ResumeTick(); ok {
		t.Fatal("fresh detector reported a resume tick")
	}
	for _, s := range snaps {
		det.PushSnapshot(s.Clone())
	}
	res := det.Close()
	if res.Stats.Patterns == 0 {
		t.Fatal("no patterns; weak test")
	}

	// A second detector resumes at the final checkpoint (Close takes one
	// covering the full stream).
	det2 := mk(true)
	cut, ok := det2.ResumeTick()
	if !ok {
		t.Fatal("resumed detector reported no resume tick")
	}
	if cut != snaps[len(snaps)-1].Tick {
		t.Fatalf("resume tick = %d, want %d", cut, snaps[len(snaps)-1].Tick)
	}
	res2 := det2.Close()
	if res2.Stats.Snapshots != 0 {
		t.Fatalf("resumed detector re-processed %d snapshots", res2.Stats.Snapshots)
	}
}
