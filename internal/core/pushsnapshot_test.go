package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/model"
)

// PushSnapshot feeds whole ticks through the record source. An empty
// snapshot sends no record, but its tick must still register: it counts
// in Metrics.Snapshots and reaches OnTickComplete exactly once, like every
// other pushed tick, and the patterns still equal the sequential
// reference's over the same stream.
func TestPushSnapshotEmptyTick(t *testing.T) {
	_, snaps, cfg := plantedWorkload(1234, 80)
	mid := len(snaps) / 2
	snaps[mid] = &model.Snapshot{Tick: snaps[mid].Tick}
	want := make([]model.Tick, len(snaps))
	for i, s := range snaps {
		want[i] = s.Tick
	}
	refPats := referencePatterns(t, cfg, snaps)
	if len(refPats) == 0 {
		t.Fatal("reference found no patterns; weak test")
	}

	var mu sync.Mutex
	var completed []model.Tick
	cfg.OnTickComplete = func(tick model.Tick) {
		mu.Lock()
		completed = append(completed, tick)
		mu.Unlock()
	}
	cfg.CollectPatterns = true
	res, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Snapshots != int64(len(snaps)) {
		t.Errorf("Metrics.Snapshots = %d, want %d", res.Metrics.Snapshots, len(snaps))
	}
	slices.Sort(completed)
	if !slices.Equal(completed, want) {
		t.Errorf("OnTickComplete ticks = %v, want %v", completed, want)
	}
	if !bytes.Equal(patternsCSV(t, res.Patterns), patternsCSV(t, refPats)) {
		t.Errorf("%d patterns differ from the sequential reference's %d", len(res.Patterns), len(refPats))
	}
}

// Jobs that ran with SourcePartitions = 0 used a snapshot front end whose
// state blobs this pipeline cannot read, and stamped their manifests with
// a fingerprint lacking source_partitions (and source_silence). Resuming
// from such a checkpoint must fail in New with the configuration diff,
// not later with a decode error.
func TestResumeRejectsSnapshotFrontEndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, snaps, cfg := plantedWorkload(9, 40)
	cfg.CheckpointInterval = 10
	cfg.CheckpointDir = dir
	if _, err := RunSnapshots(cfg, snaps); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "chk-*", "MANIFEST.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no manifests written: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m ckpt.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		var fp fingerprintSpec
		if err := json.Unmarshal(m.Spec, &fp); err != nil {
			t.Fatal(err)
		}
		if fp.SourcePartitions != 1 {
			t.Fatalf("fingerprint records %d source partitions, want 1", fp.SourcePartitions)
		}
		// What a SourcePartitions = 0 job wrote: no source stage, no
		// partition positions, and the two fields omitted.
		fp.SourcePartitions, fp.SourceSilence = 0, 0
		if m.Spec, err = json.Marshal(fp); err != nil {
			t.Fatal(err)
		}
		m.Stages = m.Stages[1:]
		m.Source.Partitions = nil
		if data, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Resume = true
	_, err = New(cfg)
	if err == nil {
		t.Fatal("resume from a snapshot-front-end checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "taken with a different configuration") {
		t.Fatalf("resume failed with %v, want the fingerprint mismatch", err)
	}
}
