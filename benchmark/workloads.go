package main

import (
	"fmt"
	"math"
)

// Detection parameters shared by every workload (ISSUE 11): the production
// defaults (RJC + FBA, classic execution, default ExchangeBatch) with only
// the deployment shape set.
const (
	eps         = 1.2
	minPts      = 10
	parallelism = 2 // = SourcePartitions = GOMAXPROCS = nproc on the sizing box
	convoySize  = 10
	ckptEvery   = 16 // dist-ckpt: ticks between aligned-barrier checkpoints
	tcpWorkers  = 2  // dist-ckpt: worker goroutines on loopback
	maxInFlight = 8  // saturate: ticks admitted before OnTickComplete frees one
	deadlineX   = 10 // paced: a tick later than this many tick periods fails
	pacedShare  = 0.55
)

var cons = constraints{M: 5, K: 18, L: 3, G: 3}

// workload is one set of inputs plus the one deployment choice (in-process
// or TCP + checkpoints) that decides which layers carry the cost.
type workload struct {
	Name string
	Why  string

	Convoys int // planted groups of convoySize co-moving objects
	Crowd   int // uniformly placed random walkers
	Extent  float64
	// CellWidth is the grid cell width lg.
	CellWidth float64
	// Convoy motion (datagen.PlantedConfig).
	RunLen, GapLen int
	Speed          float64
	// Crowd motion (datagen.ChurnConfig).
	MoveFraction, Step float64
	// PacedRate is the open-loop tick rate, calibrated once on the sizing
	// box at about pacedShare of the median saturate rate, rounded to 5.
	// It belongs in BENCHMARK.json by ISSUE 11, but the contract fixes that
	// file's keys, so it lives here.
	PacedRate float64
	// Distributed runs the pipeline over tcpnet with a coordinator, worker
	// goroutines on loopback and checkpoints to a temporary DirStore.
	Distributed bool
}

func (w workload) objects() int { return w.Convoys*convoySize + w.Crowd }

var workloads = []workload{
	{
		Name:    "crowd-join",
		Why:     "dense crowd, little co-movement, all objects move: ops/rangejoin is the bottleneck, enumerate is idle",
		Convoys: 20, Crowd: 9800, Extent: 110, CellWidth: 12,
		RunLen: 40, GapLen: 3, Speed: 0.6,
		MoveFraction: 1.0, Step: 3,
		PacedRate: 40,
	},
	{
		Name:    "crowd-still",
		Why:     "crowd-join with 10% of objects moving per tick: same layers, cells mostly unchanged, where delta execution wins",
		Convoys: 20, Crowd: 9800, Extent: 110, CellWidth: 12,
		RunLen: 40, GapLen: 3, Speed: 0.6,
		MoveFraction: 0.1, Step: 3,
		PacedRate: 40,
	},
	{
		Name:    "convoy-enum",
		Why:     "250 convoys in a sparse world, thousands of patterns per tick: ops/enumop and the sink are the bottleneck",
		Convoys: 250, Crowd: 7500, Extent: 2000, CellWidth: 32,
		RunLen: 40, GapLen: 3, Speed: 8,
		MoveFraction: 1.0, Step: 8,
		PacedRate: 30,
	},
	{
		Name:    "dist-ckpt",
		Why:     "sparse world over tcpnet with 2 workers and checkpoints: per-record paths (source, allocate, codecs, wire, ckpt) carry the cost",
		Convoys: 20, Crowd: 9800, Extent: 300, CellWidth: 12,
		RunLen: 40, GapLen: 3, Speed: 2,
		MoveFraction: 1.0, Step: 2,
		PacedRate:   45,
		Distributed: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sizes a run. The full scale is what BENCHMARK.json measures; smoke
// is the CI hook (500 objects x 60 ticks, density preserved) and makes no
// timing claim.
type scale struct {
	Name        string
	Divisor     int     // population and world area are divided by this
	RateFactor  float64 // paced rate multiplier (a small population is faster)
	VerifyTicks int
	Warmup      int
	FixedTicks  int // when > 0, ticks per timed phase regardless of -seconds
	SetupRuns   int
}

var (
	fullScale  = scale{Name: "full", Divisor: 1, RateFactor: 1, VerifyTicks: 100, Warmup: 50, SetupRuns: 5}
	smokeScale = scale{Name: "smoke", Divisor: 20, RateFactor: 8, VerifyTicks: 40, Warmup: 10, FixedTicks: 60, SetupRuns: 2}
)

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return fullScale, nil
	case "smoke":
		return smokeScale, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (full, smoke)", name)
}

// scaled shrinks the population and the world area by the same factor, so
// neighbours per object — what decides which layer is hot — stay the same.
func (w workload) scaled(sc scale) workload {
	if sc.Divisor > 1 {
		w.Convoys /= sc.Divisor
		w.Crowd /= sc.Divisor
		w.Extent /= math.Sqrt(float64(sc.Divisor))
	}
	w.PacedRate *= sc.RateFactor
	return w
}

// timedTicks is the length of each timed phase. Both phases replay the same
// ticks so their outputs can be compared exactly; with the paced rate at
// pacedShare of the saturated rate, saturate + paced take about seconds.
func (w workload) timedTicks(sc scale, seconds float64) int {
	if sc.FixedTicks > 0 {
		return sc.FixedTicks
	}
	n := int(seconds * w.PacedRate / (1 + pacedShare))
	if least := sc.Warmup + 100; n < least {
		n = least
	}
	return n
}
