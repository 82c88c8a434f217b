package ref

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geo"
	"repro/internal/join"
	"repro/internal/model"
)

func randomSnapshot(rng *rand.Rand, tick model.Tick, n int) *model.Snapshot {
	s := &model.Snapshot{Tick: tick}
	for i := 0; i < n; i++ {
		// Clumps around a few centers plus scatter.
		var p geo.Point
		if rng.Intn(3) > 0 {
			cx, cy := float64(rng.Intn(3))*20, float64(rng.Intn(3))*20
			p = geo.Point{X: cx + rng.Float64()*3, Y: cy + rng.Float64()*3}
		} else {
			p = geo.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
		}
		s.Add(model.ObjectID(i+1), p)
	}
	return s
}

func TestClusterMatchesReferenceDBSCAN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		snap := randomSnapshot(rng, model.Tick(trial+1), 120)
		eps := 1.0 + rng.Float64()*2
		minPts := 3 + rng.Intn(5)
		c := &Clusterer{
			Engine: join.NewRJC(join.Params{Eps: eps, CellWidth: eps * 4, Metric: geo.L1}),
			MinPts: minPts,
		}
		got := c.Cluster(snap)
		wantIdx := dbscan.Reference(snap, eps, geo.L1, minPts)
		want := dbscan.ToClusterSnapshot(snap, wantIdx)
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("trial %d: clusters differ\n got: %v\nwant: %v",
				trial, got.Clusters, want.Clusters)
		}
		if got.Tick != snap.Tick || got.NumObjects != snap.Len() {
			t.Errorf("metadata: %+v", got)
		}
	}
}

func TestClusterAllPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var snaps []*model.Snapshot
	for i := 1; i <= 10; i++ {
		snaps = append(snaps, randomSnapshot(rng, model.Tick(i), 50))
	}
	c := &Clusterer{
		Engine: join.NewRJC(join.Params{Eps: 2, CellWidth: 8, Metric: geo.L1}),
		MinPts: 4,
	}
	hist := c.ClusterAll(snaps)
	if len(hist) != 10 {
		t.Fatalf("history length %d", len(hist))
	}
	for i, cs := range hist {
		if cs.Tick != model.Tick(i+1) {
			t.Errorf("history[%d].Tick = %d", i, cs.Tick)
		}
	}
}
