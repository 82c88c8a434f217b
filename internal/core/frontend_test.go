package core

import (
	"bytes"
	"testing"
)

// The incremental pipeline behind the partitioned front end: the same
// record stream through 1, 2 and 4 source partitions (each allocate
// subtask diffing only its own key groups, phantom deletes covering
// silent shards) must yield byte-identical sorted pattern output to the
// sequential reference.
func TestPartitionedIncrementalMatchesSnapshotPath(t *testing.T) {
	_, snaps, cfg := plantedWorkload(1234, 120)
	cfg.CollectPatterns = true
	refPats := referencePatterns(t, cfg, snaps)
	if len(refPats) == 0 {
		t.Fatal("reference run found no patterns; weak test")
	}
	want := patternsCSV(t, refPats)

	for _, parts := range []int{1, 2, 4} {
		for _, withWM := range []bool{false, true} {
			_, snaps2, cfg2 := plantedWorkload(1234, 120)
			cfg2.CollectPatterns = true
			cfg2.SourcePartitions = parts
			cfg2.Incremental = true
			pipe, err := New(cfg2)
			if err != nil {
				t.Fatalf("partitions=%d: %v", parts, err)
			}
			pipe.Start()
			feedRecordStream(pipe, snaps2, nil, withWM)
			res := pipe.Finish()
			if got := patternsCSV(t, res.Patterns); !bytes.Equal(got, want) {
				t.Errorf("incremental partitions=%d wm=%v: %d patterns differ from the sequential reference's %d",
					parts, withWM, len(res.Patterns), len(refPats))
			}
		}
	}
}

// Churn behind the incremental front end: objects enter, move and leave
// the stream, so shard-local diffing must reproduce membership deltas
// (including whole-shard silent stretches) exactly as the sequential
// reference sees them.
func TestPartitionedIncrementalChurnMatchesSnapshotPath(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		snaps, cfg := churnWorkload(seed, 90, 0.1, 0.05)
		cfg.CollectPatterns = true
		refPats := referencePatterns(t, cfg, snaps)
		if len(refPats) == 0 {
			t.Fatalf("seed=%d: reference run found no patterns; weak test", seed)
		}
		want := patternsCSV(t, refPats)

		for _, parts := range []int{2, 4} {
			snaps2, cfg2 := churnWorkload(seed, 90, 0.1, 0.05)
			cfg2.CollectPatterns = true
			cfg2.SourcePartitions = parts
			cfg2.Incremental = true
			pipe, err := New(cfg2)
			if err != nil {
				t.Fatalf("seed=%d partitions=%d: %v", seed, parts, err)
			}
			pipe.Start()
			feedRecordStream(pipe, snaps2, nil, true)
			res := pipe.Finish()
			if got := patternsCSV(t, res.Patterns); !bytes.Equal(got, want) {
				t.Errorf("seed=%d partitions=%d: %d patterns differ from the sequential reference's %d",
					seed, parts, len(res.Patterns), len(refPats))
			}
		}
	}
}

// The incremental front end over real TCP workers: records, partial
// metas, cell deltas and pair deltas all cross sockets, output still
// matches the sequential reference byte for byte.
func TestPartitionedIncrementalDistributedTCP(t *testing.T) {
	_, snaps, cfg := plantedWorkload(99, 80)
	cfg.CollectPatterns = true
	refPats := referencePatterns(t, cfg, snaps)
	if len(refPats) == 0 {
		t.Fatal("reference run found no patterns; weak test")
	}
	want := patternsCSV(t, refPats)

	_, snaps2, cfg2 := plantedWorkload(99, 80)
	cfg2.CollectPatterns = true
	cfg2.SourcePartitions = 2
	cfg2.Incremental = true
	res := runDistributedRecords(t, cfg2, snaps2, 2)
	if got := patternsCSV(t, res.Patterns); !bytes.Equal(got, want) {
		t.Errorf("tcp incremental front end: %d patterns differ from the sequential reference's %d",
			len(res.Patterns), len(refPats))
	}
}

// Kill-and-resume of the incremental front end with an elastic rescale in
// both directions (2 -> 4 and 4 -> 2): the per-key-group allocate state
// (previous positions + open record buffers), the cell indexes and the
// cluster structure are re-sliced onto the new subtask count, the source
// replays per shard offsets, and the combined committed output must match
// an uninterrupted run byte for byte.
func TestPartitionedIncrementalKillResumeRescale(t *testing.T) {
	const (
		parts     = 4
		interval  = 10
		crashTick = 47
		ckptAtCut = 4
	)
	for _, par := range [][2]int{{2, 4}, {4, 2}} {
		// Reference: uninterrupted partitioned incremental run.
		_, snaps, cfg := plantedWorkload(1234, 120)
		cfg.SourcePartitions = parts
		cfg.Incremental = true
		cfg.Parallelism = par[0]
		cfg.CheckpointInterval = interval
		cfg.CheckpointDir = t.TempDir()
		var ref commitLog
		cfg.OnCommit = ref.hook()
		refPipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refPipe.Start()
		feedRecordStream(refPipe, snaps, nil, true)
		refPipe.Finish()
		if len(ref.patterns()) == 0 {
			t.Fatalf("%d->%d: reference run committed no patterns; weak test", par[0], par[1])
		}

		// Crashy run: abandon without drain after the cut completes.
		dir := t.TempDir()
		_, snaps2, cfg2 := plantedWorkload(1234, 120)
		cfg2.SourcePartitions = parts
		cfg2.Incremental = true
		cfg2.Parallelism = par[0]
		cfg2.CheckpointInterval = interval
		cfg2.CheckpointDir = dir
		var crashed commitLog
		cfg2.OnCommit = crashed.hook()
		crashy, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		crashy.Start()
		feedRecordStream(crashy, snaps2[:crashTick], nil, true)
		waitCheckpoint(t, crashy, ckptAtCut)
		// Crash: abandon the pipeline.

		// Resume at the other parallelism, replaying the full stream (the
		// restored source partitions drop the absorbed prefix).
		_, snaps3, cfg3 := plantedWorkload(1234, 120)
		cfg3.SourcePartitions = parts
		cfg3.Incremental = true
		cfg3.Parallelism = par[1]
		cfg3.CheckpointInterval = interval
		cfg3.CheckpointDir = dir
		cfg3.Resume = true
		var resumed commitLog
		cfg3.OnCommit = resumed.hook()
		rp, err := New(cfg3)
		if err != nil {
			t.Fatalf("%d->%d: resume: %v", par[0], par[1], err)
		}
		rp.Start()
		feedRecordStream(rp, snaps3, nil, true)
		rp.Finish()

		got := append(crashed.patterns(), resumed.patterns()...)
		if !bytes.Equal(patternsCSV(t, got), patternsCSV(t, ref.patterns())) {
			t.Fatalf("%d->%d: incremental front-end crash+resume output differs: %d patterns, want %d",
				par[0], par[1], len(got), len(ref.patterns()))
		}
		if len(crashed.patterns()) == 0 || len(resumed.patterns()) == 0 {
			t.Logf("%d->%d: warning: one side empty (crashed=%d resumed=%d)",
				par[0], par[1], len(crashed.patterns()), len(resumed.patterns()))
		}
	}
}

// Classic-mode rescale in the opposite direction of the kill-resume test
// (4 -> 2): shrinking the allocate/rangejoin/cluster stages under the
// partitioned front end must restore cleanly too.
func TestPartitionedSourceKillResumeShrink(t *testing.T) {
	const (
		parts     = 4
		interval  = 10
		crashTick = 47
		ckptAtCut = 4
	)
	_, snaps, cfg := plantedWorkload(1234, 120)
	cfg.SourcePartitions = parts
	cfg.Parallelism = 4
	cfg.CheckpointInterval = interval
	cfg.CheckpointDir = t.TempDir()
	var ref commitLog
	cfg.OnCommit = ref.hook()
	refPipe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refPipe.Start()
	feedRecordStream(refPipe, snaps, nil, true)
	refPipe.Finish()
	if len(ref.patterns()) == 0 {
		t.Fatal("reference run committed no patterns; weak test")
	}

	dir := t.TempDir()
	_, snaps2, cfg2 := plantedWorkload(1234, 120)
	cfg2.SourcePartitions = parts
	cfg2.Parallelism = 4
	cfg2.CheckpointInterval = interval
	cfg2.CheckpointDir = dir
	var crashed commitLog
	cfg2.OnCommit = crashed.hook()
	crashy, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	crashy.Start()
	feedRecordStream(crashy, snaps2[:crashTick], nil, true)
	waitCheckpoint(t, crashy, ckptAtCut)

	_, snaps3, cfg3 := plantedWorkload(1234, 120)
	cfg3.SourcePartitions = parts
	cfg3.Parallelism = 2
	cfg3.CheckpointInterval = interval
	cfg3.CheckpointDir = dir
	cfg3.Resume = true
	var resumed commitLog
	cfg3.OnCommit = resumed.hook()
	rp, err := New(cfg3)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	rp.Start()
	feedRecordStream(rp, snaps3, nil, true)
	rp.Finish()

	got := append(crashed.patterns(), resumed.patterns()...)
	if !bytes.Equal(patternsCSV(t, got), patternsCSV(t, ref.patterns())) {
		t.Fatalf("classic front-end 4->2 rescale output differs: %d patterns, want %d",
			len(got), len(ref.patterns()))
	}
}
