package main

// surface.go is the benchmark's frozen call surface: every symbol of
// repro/internal/... that the benchmark uses is named here and nowhere
// else. Later PRs may not edit the benchmark, so they must keep exactly
// these symbols compiling with these meanings (README "Frozen call
// surface"). Nothing here adds behaviour.

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbscan"
	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ops/msg"
	"repro/internal/trajio"
	"repro/internal/transport/tcpnet"
)

type (
	objectID    = model.ObjectID
	tick        = model.Tick
	point       = geo.Point
	pattern     = model.Pattern
	constraints = model.Constraints
	snapshot    = model.Snapshot

	clusterSnapshot = model.ClusterSnapshot

	// pipelineConfig fields used: Constraints, Eps, CellWidth, Metric,
	// MinPts, Parallelism, SourcePartitions, Incremental (dev variant
	// only), OnPattern, OnTickComplete, CheckpointInterval, CheckpointDir.
	// Everything else keeps its zero value, i.e. the production default.
	pipelineConfig = core.Config
	pipeline       = core.Pipeline
	workerStats    = core.WorkerStats
	ckptSnapshot   = metrics.CheckpointSnapshot

	cellTask  = join.CellTask
	partition = enum.Partition

	flowMessage = flow.Message
	flowBatch   = flow.Batch

	msgRec   = msg.Rec
	msgCell  = msg.Cell
	msgPairs = msg.Pairs

	plantedConfig = datagen.PlantedConfig
	churnConfig   = datagen.ChurnConfig
)

const (
	metricL1      = geo.L1
	gridUpperHalf = grid.UpperHalf
)

var (
	// Pipeline under test. Methods used on *pipeline: Start, PushRecord,
	// PushSourceWatermark, Finish, StageNames, StageRecords, StageBusy,
	// StageSubtaskBusy, CheckpointStats.
	newPipeline    = core.New
	newDistributed = core.NewDistributed
	runWorker      = core.RunWorker

	// Methods used on the coordinator: Addr, Close.
	newCoordinator = tcpnet.NewCoordinator
	wireCounters   = tcpnet.WireCounters

	// The layers' public functions, called one at a time by the
	// sequential replay.
	allocateObjects   = join.AllocateObjects
	runCellRJC        = join.RunCellRJC
	clustersFromPairs = dbscan.FromPairs
	toClusterSnapshot = dbscan.ToClusterSnapshot
	partitionClusters = enum.PartitionClusters
	newEnumDriver     = enum.NewDriver // methods used: Process, Flush
	newFBA            = enum.NewFBA

	appendMessageWire = flow.AppendMessageWire
	decodeMessage     = flow.DecodeMessage
	channelTransport  = flow.Channels // methods used: Edge; Endpoint.Send/Recv/Close

	newPlanted = datagen.NewPlanted // method used: Next
	newChurn   = datagen.NewChurn   // method used: Next

	writePatternsCSV = trajio.WritePatternsCSV
)
