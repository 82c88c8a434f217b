package core

import (
	"fmt"

	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/ops/allocate"
	"repro/internal/ops/clusterop"
	"repro/internal/ops/enumop"
	"repro/internal/ops/rangejoin"
	"repro/internal/ops/sourceop"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Hooks are the callbacks a topology run reports through: per-tick cluster
// snapshots, BA overflow, and the sink for patterns and watermarks.
type Hooks struct {
	OnCluster  func(model.Tick, *model.ClusterSnapshot)
	OnOverflow func()
	// AllocStats, when non-nil, receives the allocate counters (typically
	// nil on worker processes).
	AllocStats    *allocate.Stats
	Sink          func(any)
	SinkWatermark func(model.Tick)
}

// Topology declares the standard ICPE pipeline of the paper (Figure 3) for
// one Config, as data:
//
//	driver -> source -> allocate -> rangejoin -> cluster -> enumerate -> sink
//	 (keyed by object id) (by object id) (by cell) (by tick) (by trajectory id)
//
// Ingestion is part of the dataflow and no stage ever materializes a
// global snapshot: each source subtask owns one shard of object ids and
// each allocate subtask buffers its own key groups' records, diffing or
// allocating them shard-locally as the merged per-partition coverage
// watermark advances (see internal/ops/sourceop and internal/ops/allocate).
//
// Every edge is a batched keyed exchange (Config.ExchangeBatch). The graph
// is plain data; callers may inspect or tweak it before Build.
func Topology(cfg *Config, h Hooks) (*topology.Graph, error) {
	mk, err := enumFactory(cfg.Enum)
	if err != nil {
		return nil, err
	}

	// Normalize here too, so a Config built without New's fill pass still
	// gets the documented default.
	batch := normalizeBatch(cfg.ExchangeBatch)

	// Translate the clustering method into per-operator knobs.
	lg, mode := cfg.CellWidth, grid.UpperHalf
	kernel := rangejoin.RJC
	switch cfg.Cluster {
	case RJC:
	case SRJ:
		mode = grid.FullRegion
		kernel = rangejoin.SRJ
	case GDC:
		// GDC divides space by eps itself (Section 7.1): every location is
		// replicated to its full 3x3 eps-cell neighbourhood, which is what
		// makes its partition count explode for small eps.
		lg, mode = cfg.Eps, grid.FullRegion
		kernel = rangejoin.SRJ
	default:
		return nil, fmt.Errorf("core: unknown cluster method %q", cfg.Cluster)
	}

	// Normalize here too (like batch), so a Config built without New's
	// fill pass gets the documented defaults.
	partitions := cfg.SourcePartitions
	if partitions <= 0 {
		partitions = 1
	}
	silence := cfg.SourceSilence
	if silence <= 0 {
		silence = stream.DefaultSilenceTimeout
	}
	slack := cfg.SourceSlack
	stages := []topology.Stage{
		{
			Name:        "source",
			Parallelism: partitions,
			Operator: func(int) flow.Operator {
				return sourceop.NewPartition(slack, silence)
			},
		},
		{
			Name:        "allocate",
			Parallelism: cfg.Parallelism,
			Operator: func(subtask int) flow.Operator {
				return allocate.New(lg, cfg.Eps, mode, cfg.Incremental, subtask, h.AllocStats)
			},
		},
		{
			Name:        "rangejoin",
			Parallelism: cfg.Parallelism,
			Operator: func(int) flow.Operator {
				op := rangejoin.New(cfg.Eps, cfg.Metric, kernel)
				op.Incremental = cfg.Incremental
				return op
			},
		},
		{
			Name:        "cluster",
			Parallelism: cfg.Parallelism,
			Operator: func(int) flow.Operator {
				return clusterop.New(clusterop.Config{
					MinPts:      cfg.MinPts,
					Dedupe:      cfg.Cluster != RJC,
					GroupMin:    cfg.Constraints.M,
					Enumerate:   cfg.Enum != NoEnum,
					Incremental: cfg.Incremental,
					OnCluster:   h.OnCluster,
				})
			},
		},
	}
	exchanges := []topology.Exchange{
		{Batch: batch}, // source -> allocate (records by object id)
		{Batch: batch}, // allocate -> rangejoin (cell tasks)
		{Batch: batch}, // rangejoin -> cluster (pair sets)
	}
	if cfg.Enum != NoEnum {
		stages = append(stages, topology.Stage{
			Name:        "enumerate",
			Parallelism: cfg.Parallelism,
			Operator: func(int) flow.Operator {
				return enumop.New(enumop.Config{
					Constraints: cfg.Constraints,
					New:         mk,
					OnOverflow:  h.OnOverflow,
				})
			},
		})
		// cluster -> enumerate (id partitions)
		exchanges = append(exchanges, topology.Exchange{Batch: batch})
	}

	slots := 0
	if cfg.Nodes > 0 {
		slots = cfg.Nodes * cfg.SlotsPerNode
	}
	return &topology.Graph{
		Name:           "icpe",
		Stages:         stages,
		Exchanges:      exchanges,
		MaxParallelism: cfg.MaxParallelism,
		Slots:          slots,
		Sink:           h.Sink,
		SinkWatermark:  h.SinkWatermark,
		Transport:      cfg.Transport,
		Local:          cfg.Local,
	}, nil
}

// enumFactory maps an EnumMethod to its enumerator constructor (nil for
// NoEnum).
func enumFactory(m EnumMethod) (enum.NewFunc, error) {
	switch m {
	case BA:
		return enum.NewBA, nil
	case FBA:
		return enum.NewFBA, nil
	case VBA:
		return enum.NewVBA, nil
	case NoEnum:
		return nil, nil
	default:
		return nil, fmt.Errorf("core: unknown enum method %q", m)
	}
}
