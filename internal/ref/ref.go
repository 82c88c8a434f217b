// Package ref is the sequential reference of the paper's detection
// pipeline: a range join over each snapshot, DBSCAN on the neighbour
// pairs (Section 5), then candidate-based enumeration over the cluster
// history (Section 6) — the layers' public functions called one snapshot
// at a time, with no dataflow in between. Tests compare the distributed
// pipeline's output against it, and the benchmarks in internal/bench use
// its Clusterer for the join-engine ablation.
package ref

import (
	"repro/internal/dbscan"
	"repro/internal/enum"
	"repro/internal/geo"
	"repro/internal/join"
	"repro/internal/model"
)

// Clusterer clusters snapshots with a pluggable join engine (RJC by
// default, SRJ/GDC for baseline comparisons).
type Clusterer struct {
	// Engine computes the range join.
	Engine join.Engine
	// MinPts is DBSCAN's density threshold (the point itself counts).
	MinPts int
}

// Cluster runs join + DBSCAN over one snapshot.
func (c *Clusterer) Cluster(s *model.Snapshot) *model.ClusterSnapshot {
	var pairs [][2]int32
	c.Engine.Join(s, func(i, j int32) {
		pairs = append(pairs, [2]int32{i, j})
	})
	idx := dbscan.FromPairs(s.Len(), pairs, c.MinPts)
	return dbscan.ToClusterSnapshot(s, idx)
}

// ClusterAll clusters a sequence of snapshots, returning the cluster
// history in order. Convenience for offline tests and benches.
func (c *Clusterer) ClusterAll(snaps []*model.Snapshot) []*model.ClusterSnapshot {
	out := make([]*model.ClusterSnapshot, len(snaps))
	for i, s := range snaps {
		out[i] = c.Cluster(s)
	}
	return out
}

// Patterns runs the whole detection sequentially: RJC range join and
// DBSCAN per snapshot, then the enumeration driver over the cluster
// history with the enumerator mk. The patterns come back sorted
// (enum.SortPatterns), the canonical order for comparing outputs.
func Patterns(snaps []*model.Snapshot, c model.Constraints, eps, cellWidth float64,
	metric geo.Metric, minPts int, mk enum.NewFunc) []model.Pattern {
	cl := &Clusterer{
		Engine: join.NewRJC(join.Params{Eps: eps, CellWidth: cellWidth, Metric: metric}),
		MinPts: minPts,
	}
	return enum.NewDriver(c, mk).Run(cl.ClusterAll(snaps))
}
