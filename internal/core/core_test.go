package core

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/enum"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/ref"
	"repro/internal/topology"
)

// referencePatterns runs the sequential reference (internal/ref: RJC join,
// DBSCAN, enumeration driver) over snaps with cfg's detection parameters
// — the oracle every pipeline configuration must reproduce exactly.
func referencePatterns(t *testing.T, cfg Config, snaps []*model.Snapshot) []model.Pattern {
	t.Helper()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	mk, err := enumFactory(cfg.Enum)
	if err != nil {
		t.Fatal(err)
	}
	return ref.Patterns(snaps, cfg.Constraints, cfg.Eps, cfg.CellWidth, cfg.Metric, cfg.MinPts, mk)
}

func plantedWorkload(seed int64, ticks int) (*datagen.Planted, []*model.Snapshot, Config) {
	cfg := datagen.DefaultPlanted(seed)
	cfg.NumGroups = 3
	cfg.GroupSize = 5
	cfg.NumNoise = 25
	sim := datagen.NewPlanted(cfg)
	snaps := datagen.Snapshots(sim, ticks)
	c := Config{
		Constraints: model.Constraints{M: 4, K: 6, L: 3, G: 3},
		Eps:         cfg.Eps,
		CellWidth:   cfg.Eps * 4,
		Metric:      geo.L1,
		MinPts:      4,
		Parallelism: 3,
	}
	return sim, snaps, c
}

func TestConfigValidation(t *testing.T) {
	_, err := New(Config{})
	if err == nil {
		t.Error("empty config accepted")
	}
	_, err = New(Config{Constraints: model.Constraints{M: 2, K: 2, L: 1, G: 1}})
	if err == nil {
		t.Error("missing eps accepted")
	}
	_, err = New(Config{
		Constraints: model.Constraints{M: 2, K: 2, L: 1, G: 1},
		Eps:         1, Enum: "bogus",
	})
	if err == nil {
		t.Error("bogus enum method accepted")
	}
	_, err = New(Config{
		Constraints: model.Constraints{M: 2, K: 2, L: 1, G: 1},
		Eps:         1, Cluster: "bogus",
	})
	if err == nil {
		t.Error("bogus cluster method accepted")
	}
}

// The pipeline must produce exactly the same patterns as the sequential
// reference path (join engine + DBSCAN + enum driver) on the same stream.
func TestPipelineMatchesSequentialReference(t *testing.T) {
	for _, method := range []EnumMethod{BA, FBA, VBA} {
		_, snaps, cfg := plantedWorkload(21, 120)
		cfg.Enum = method
		cfg.CollectPatterns = true
		res, err := RunSnapshots(cfg, snaps)
		if err != nil {
			t.Fatal(err)
		}
		enum.SortPatterns(res.Patterns)

		want := referencePatterns(t, cfg, snaps)

		if len(res.Patterns) != len(want) {
			t.Fatalf("%s: pipeline %d patterns, reference %d",
				method, len(res.Patterns), len(want))
		}
		for i := range want {
			if res.Patterns[i].Key() != want[i].Key() ||
				!reflect.DeepEqual(res.Patterns[i].Times, want[i].Times) {
				t.Fatalf("%s: pattern %d differs: %v vs %v",
					method, i, res.Patterns[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: workload produced no patterns; weak test", method)
		}
	}
}

// Planted groups must be recovered: each group's full object set appears
// among the detected patterns.
func TestPlantedGroupsRecovered(t *testing.T) {
	sim, snaps, cfg := plantedWorkload(33, 150)
	cfg.Enum = FBA
	cfg.CollectPatterns = true
	res, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	found := enum.ObjectSets(res.Patterns)
	for g := 0; g < 3; g++ {
		members := sim.GroupMembers(g)
		key := model.Pattern{Objects: members}.Key()
		if !found[key] {
			t.Errorf("group %d (%v) not detected; %d patterns found",
				g, members, len(res.Patterns))
		}
	}
	if res.Metrics.Snapshots != 150 {
		t.Errorf("snapshots = %d", res.Metrics.Snapshots)
	}
}

// Results must be identical across parallelism and node-slot settings.
func TestDeterministicAcrossParallelism(t *testing.T) {
	run := func(par, nodes int) []model.Pattern {
		_, snaps, cfg := plantedWorkload(44, 100)
		cfg.Enum = VBA
		cfg.Parallelism = par
		cfg.Nodes = nodes
		cfg.CollectPatterns = true
		res, err := RunSnapshots(cfg, snaps)
		if err != nil {
			t.Fatal(err)
		}
		enum.SortPatterns(res.Patterns)
		return res.Patterns
	}
	a := run(1, 0)
	b := run(8, 2)
	if len(a) == 0 {
		t.Fatal("no patterns; weak test")
	}
	if len(a) != len(b) {
		t.Fatalf("parallelism changed results: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || !reflect.DeepEqual(a[i].Times, b[i].Times) {
			t.Fatalf("pattern %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Batching on the keyed exchanges must not change results: batches are
// sealed on every watermark, so event-time semantics are identical.
func TestDeterministicAcrossExchangeBatching(t *testing.T) {
	run := func(batch int) []model.Pattern {
		_, snaps, cfg := plantedWorkload(99, 100)
		cfg.Enum = FBA
		cfg.ExchangeBatch = batch
		cfg.CollectPatterns = true
		res, err := RunSnapshots(cfg, snaps)
		if err != nil {
			t.Fatal(err)
		}
		enum.SortPatterns(res.Patterns)
		return res.Patterns
	}
	a := run(-1) // record-at-a-time
	b := run(64)
	if len(a) == 0 {
		t.Fatal("no patterns; weak test")
	}
	if len(a) != len(b) {
		t.Fatalf("batching changed results: %d vs %d patterns", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || !reflect.DeepEqual(a[i].Times, b[i].Times) {
			t.Fatalf("pattern %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// The standard topology must be declared as a valid four-stage graph with
// batched exchanges on every edge.
func TestStandardTopologyShape(t *testing.T) {
	_, _, cfg := plantedWorkload(11, 10)
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	g, err := Topology(&cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("standard topology invalid: %v", err)
	}
	want := []string{"source", "allocate", "rangejoin", "cluster", "enumerate"}
	if len(g.Stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(g.Stages), len(want))
	}
	for i, name := range want {
		if g.Stages[i].Name != name {
			t.Errorf("stage %d = %q, want %q", i, g.Stages[i].Name, name)
		}
	}
	if len(g.Exchanges) != len(g.Stages)-1 {
		t.Fatalf("%d exchanges for %d stages", len(g.Exchanges), len(g.Stages))
	}
	for i, ex := range g.Exchanges {
		if ex.Batch != cfg.ExchangeBatch {
			t.Errorf("exchange %d batch = %d, want %d", i, ex.Batch, cfg.ExchangeBatch)
		}
	}

	cfg.Enum = NoEnum
	g, err = Topology(&cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Stages) != 4 || g.Stages[len(g.Stages)-1].Name != "cluster" {
		t.Errorf("NoEnum topology has stages %v", stageNames(g.Stages))
	}
}

func stageNames(ss []topology.Stage) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

// All three clustering engines must produce identical patterns (they
// compute the same range join).
func TestClusterEnginesAgree(t *testing.T) {
	var base []model.Pattern
	for i, cm := range []ClusterMethod{RJC, SRJ, GDC} {
		_, snaps, cfg := plantedWorkload(55, 80)
		cfg.Cluster = cm
		cfg.Enum = FBA
		cfg.CollectPatterns = true
		res, err := RunSnapshots(cfg, snaps)
		if err != nil {
			t.Fatal(err)
		}
		enum.SortPatterns(res.Patterns)
		if i == 0 {
			base = res.Patterns
			if len(base) == 0 {
				t.Fatal("no patterns; weak test")
			}
			continue
		}
		if len(res.Patterns) != len(base) {
			t.Fatalf("%s: %d patterns vs RJC %d", cm, len(res.Patterns), len(base))
		}
		for j := range base {
			if res.Patterns[j].Key() != base[j].Key() {
				t.Fatalf("%s: pattern %d differs", cm, j)
			}
		}
	}
}

func TestClusteringOnlyMode(t *testing.T) {
	_, snaps, cfg := plantedWorkload(66, 60)
	cfg.Enum = NoEnum
	res, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Patterns != 0 {
		t.Errorf("NoEnum produced %d patterns", res.Metrics.Patterns)
	}
	if res.Metrics.ClusterLatency.Count() == 0 {
		t.Error("no clustering latency samples")
	}
	if res.Metrics.CompletionLatency.Count() == 0 {
		t.Error("no completion latency samples")
	}
	if res.Metrics.AvgClusterSize.Value() <= 0 {
		t.Error("no cluster size samples")
	}
	rep := res.Metrics.Report()
	if rep.ThroughputPerSec <= 0 {
		t.Errorf("throughput = %v", rep.ThroughputPerSec)
	}
}

func TestMetricsPopulated(t *testing.T) {
	_, snaps, cfg := plantedWorkload(77, 100)
	cfg.Enum = FBA
	res, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.ClusterLatency.Count() != 100 {
		t.Errorf("cluster latency samples = %d, want 100", m.ClusterLatency.Count())
	}
	if m.CompletionLatency.Count() != 100 {
		t.Errorf("completion latency samples = %d, want 100", m.CompletionLatency.Count())
	}
	if m.Patterns > 0 && m.PatternLatency.Count() == 0 {
		t.Error("patterns emitted but no pattern latency samples")
	}
	if m.Patterns == 0 {
		t.Error("no patterns found; weak test")
	}
}

func TestOnPatternCallback(t *testing.T) {
	_, snaps, cfg := plantedWorkload(88, 100)
	cfg.Enum = FBA
	count := 0 // sink callbacks are serialized by the flow engine
	cfg.OnPattern = func(model.Pattern) { count++ }
	res, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if int64(count) != res.Metrics.Patterns {
		t.Errorf("callback count %d != metric %d", count, res.Metrics.Patterns)
	}
}
