package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/model"
	"repro/internal/transport/tcpnet"
)

// feedRecordStream flattens snapshots into the deterministic record stream
// (tick-major, objects in snapshot order) and pushes it through the
// partitioned source layer. A non-nil skip holds per-partition record
// counts to drop — the per-shard replay offsets of a resume. withWM emits
// a source watermark at every tick boundary (the cmd/icpe feedRecords
// discipline); release content must be identical either way.
func feedRecordStream(p *Pipeline, snaps []*model.Snapshot, skip []int64, withWM bool) {
	for si, s := range snaps {
		if withWM && si > 0 {
			p.PushSourceWatermark(snaps[si-1].Tick)
		}
		for i, obj := range s.Objects {
			if skip != nil {
				if part := p.SourcePartitionOf(obj); skip[part] > 0 {
					skip[part]--
					continue
				}
			}
			p.PushRecord(obj, s.Locs[i], s.Tick)
		}
	}
}

// runDistributedRecords is runDistributed's record-fed twin: a coordinator
// plus workers cluster over real TCP sockets, the driver submitting raw
// records into the remote source stage.
func runDistributedRecords(t *testing.T, cfg Config, snaps []*model.Snapshot, workers int) Result {
	t.Helper()
	coord, err := tcpnet.NewCoordinator("127.0.0.1:0", workers)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(coord.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	pipe, err := NewDistributed(cfg, coord)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	feedRecordStream(pipe, snaps, nil, false)
	res := pipe.Finish()
	wg.Wait()
	return res
}

// recordCount returns the number of records in the first n snapshots.
func recordCount(snaps []*model.Snapshot, n int) int64 {
	var total int64
	for _, s := range snaps[:n] {
		total += int64(len(s.Objects))
	}
	return total
}

// The same input stream fed as individual records through 1, 2 and 4
// source partitions must yield byte-identical sorted pattern output to the
// sequential reference — the pinned equivalence of the partitioned source
// layer.
func TestPartitionedSourceMatchesSnapshotPath(t *testing.T) {
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
			pipe, err := New(cfg2)
			if err != nil {
				t.Fatalf("partitions=%d: %v", parts, err)
			}
			pipe.Start()
			feedRecordStream(pipe, snaps2, nil, withWM)
			res := pipe.Finish()
			if got := patternsCSV(t, res.Patterns); !bytes.Equal(got, want) {
				t.Errorf("partitions=%d wm=%v: %d patterns differ from the sequential reference's %d",
					parts, withWM, len(res.Patterns), len(refPats))
			}
			if res.Metrics.Snapshots != int64(len(snaps2)) {
				t.Errorf("partitions=%d wm=%v: assembled %d snapshots, want %d",
					parts, withWM, res.Metrics.Snapshots, len(snaps2))
			}
		}
	}
}

// The partitioned source over the TCP transport: the source and front-end
// allocate stages run on real worker processes (every edge crossing a
// socket via round-robin placement), the driver submits raw records, and
// the output must still match the sequential reference byte for byte.
func TestPartitionedSourceDistributedTCP(t *testing.T) {
	_, snaps, cfg := plantedWorkload(99, 80)
	cfg.CollectPatterns = true
	refPats := referencePatterns(t, cfg, snaps)
	if len(refPats) == 0 {
		t.Fatal("reference run found no patterns; weak test")
	}
	want := patternsCSV(t, refPats)

	for _, parts := range []int{2, 4} {
		_, snaps2, cfg2 := plantedWorkload(99, 80)
		cfg2.CollectPatterns = true
		cfg2.SourcePartitions = parts
		res := runDistributedRecords(t, cfg2, snaps2, 2)
		if got := patternsCSV(t, res.Patterns); !bytes.Equal(got, want) {
			t.Errorf("tcp partitions=%d: %d patterns differ from the sequential reference's %d",
				parts, len(res.Patterns), len(refPats))
		}
	}
}

// A partitioned-source run killed mid-stream resumes from its checkpoint
// with the manifest's per-partition source positions replaying each shard
// from its own offset. Both replay disciplines must reproduce the
// uninterrupted committed output byte for byte:
//
//   - offsets: the driver skips exactly the checkpointed record count of
//     every shard (the deterministic-replay fast path);
//   - full: the driver replays the whole stream and the restored source
//     partitions drop what the checkpoint already absorbed (the
//     non-deterministic multi-publisher path).
//
// The resumed run also switches Parallelism (3 -> 5), so the allocate
// stage's key-group state is resharded while the source stage's raw
// per-partition state restores 1:1 — the "composes with key-group rescale"
// guarantee.
func TestPartitionedSourceKillResume(t *testing.T) {
	const (
		parts     = 4
		interval  = 10 // ticks per checkpoint (same meaning as snapshot mode)
		crashTick = 47 // feed this many ticks before the simulated crash
		ckptAtCut = 4  // cut falls cleanly at tick interval*ckptAtCut
	)
	for _, mode := range []string{"offsets", "full"} {
		// Reference: uninterrupted partitioned run, committed output only.
		_, snaps, cfg := plantedWorkload(1234, 120)
		cfg.SourcePartitions = parts
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
			t.Fatalf("%s: reference run committed no patterns; weak test", mode)
		}

		// Crashy run: abandon the pipeline without drain after the cut.
		dir := t.TempDir()
		_, snaps2, cfg2 := plantedWorkload(1234, 120)
		cfg2.SourcePartitions = parts
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
		man := waitCheckpoint(t, crashy, ckptAtCut)
		if len(man.Source.Partitions) != parts {
			t.Fatalf("%s: manifest has %d partition positions, want %d",
				mode, len(man.Source.Partitions), parts)
		}
		var sum int64
		for _, pp := range man.Source.Partitions {
			sum += pp.Records
		}
		wantRecs := recordCount(snaps2, interval*ckptAtCut)
		if sum != man.Source.Snapshots || sum != wantRecs {
			t.Fatalf("%s: partition records sum %d, source count %d, want %d (clean cut at tick %d)",
				mode, sum, man.Source.Snapshots, wantRecs, interval*ckptAtCut)
		}

		// Resume at a different Parallelism, replaying per the mode.
		_, snaps3, cfg3 := plantedWorkload(1234, 120)
		cfg3.SourcePartitions = parts
		cfg3.Parallelism = 5
		cfg3.CheckpointInterval = interval
		cfg3.CheckpointDir = dir
		cfg3.Resume = true
		var resumed commitLog
		cfg3.OnCommit = resumed.hook()
		rp, err := New(cfg3)
		if err != nil {
			t.Fatalf("%s: resume: %v", mode, err)
		}
		pos, ok := rp.ResumePosition()
		if !ok || len(pos.Partitions) != parts {
			t.Fatalf("%s: resume position %+v, %v", mode, pos, ok)
		}
		var skip []int64
		if mode == "offsets" {
			skip = make([]int64, parts)
			for i, pp := range pos.Partitions {
				skip[i] = pp.Records
			}
		}
		rp.Start()
		feedRecordStream(rp, snaps3, skip, true)
		rp.Finish()

		got := append(crashed.patterns(), resumed.patterns()...)
		if !bytes.Equal(patternsCSV(t, got), patternsCSV(t, ref.patterns())) {
			t.Fatalf("%s: crash+resume output differs: %d patterns, want %d",
				mode, len(got), len(ref.patterns()))
		}
		if len(crashed.patterns()) == 0 || len(resumed.patterns()) == 0 {
			t.Logf("%s: warning: one side empty (crashed=%d resumed=%d); cut placement weak",
				mode, len(crashed.patterns()), len(resumed.patterns()))
		}
	}
}

// Changing the source partition count across a resume must be rejected up
// front: the per-partition replay offsets (and the raw shard state) are
// pinned to the sharding that took the checkpoint.
func TestPartitionedSourceResumeRejectsPartitionChange(t *testing.T) {
	const interval = 200
	dir := t.TempDir()
	_, snaps, cfg := plantedWorkload(7, 60)
	cfg.SourcePartitions = 2
	cfg.CheckpointInterval = interval
	cfg.CheckpointDir = dir
	pipe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	feedRecordStream(pipe, snaps, nil, false)
	pipe.Finish() // graceful: leaves a final checkpoint

	cfg2 := cfg
	cfg2.SourcePartitions = 4
	cfg2.Resume = true
	if _, err := New(cfg2); err == nil {
		t.Fatal("resume with a different source partition count accepted")
	}
}

// The partitioned topology must prepend exactly one ingestion stage — the
// partitioned source feeding allocate directly, no assembly stage — with
// the source at the configured partition count.
func TestPartitionedTopologyShape(t *testing.T) {
	_, _, cfg := plantedWorkload(1, 10)
	cfg.SourcePartitions = 5
	// Topology is called below without New's fill pass.
	cfg.Enum, cfg.Cluster = FBA, RJC
	names, err := TopologyStageNames(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"source", "allocate", "rangejoin", "cluster", "enumerate"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	g, err := Topology(&cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stages[0].Parallelism != 5 {
		t.Errorf("source parallelism %d, want 5", g.Stages[0].Parallelism)
	}
	if len(g.Exchanges) != len(g.Stages)-1 {
		t.Errorf("%d exchanges for %d stages", len(g.Exchanges), len(g.Stages))
	}
}

// Sanity for the per-partition record counters: the positions must count
// exactly the records routed to each shard by the exchange mapping.
func TestPartitionPositionsMatchRouting(t *testing.T) {
	const parts = 3
	_, snaps, cfg := plantedWorkload(42, 60)
	cfg.SourcePartitions = parts
	cfg.CheckpointInterval = 1 << 30 // only the final graceful barrier fires
	cfg.CheckpointDir = t.TempDir()
	pipe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, parts)
	pipe.Start()
	for _, s := range snaps {
		for i, obj := range s.Objects {
			want[pipe.SourcePartitionOf(obj)]++
			pipe.PushRecord(obj, s.Locs[i], s.Tick)
		}
	}
	pipe.Finish()
	man, err := pipe.ck.store.Latest()
	if err != nil || man == nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if len(man.Source.Partitions) != parts {
		t.Fatalf("manifest has %d partition positions, want %d", len(man.Source.Partitions), parts)
	}
	for i, pp := range man.Source.Partitions {
		if pp.Records != want[i] {
			t.Errorf("partition %d: %d records recorded, want %d", i, pp.Records, want[i])
		}
		if want[i] > 0 && pp.LastTick != snaps[len(snaps)-1].Tick {
			t.Errorf("partition %d: last tick %d, want %d", i, pp.LastTick, snaps[len(snaps)-1].Tick)
		}
	}
	if recordCount(snaps, len(snaps)) != man.Source.Snapshots {
		t.Errorf("source count %d, want %d", man.Source.Snapshots, recordCount(snaps, len(snaps)))
	}
	var _ ckpt.SourcePosition = man.Source
}
