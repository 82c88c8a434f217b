package main

import "math"

// stream is one workload's pre-generated record stream, stored flat so
// feeding touches no per-record pointers: every object reports at every
// tick under the same id, so one id list serves all ticks and tick t's
// locations are locs[t*n : (t+1)*n]. Ticks are numbered from 1.
type stream struct {
	ids   []objectID
	locs  []point
	ticks int
}

const convoyBurnIn = 500

func (s *stream) objects() int { return len(s.ids) }

// at returns tick number t's locations (t from 1).
func (s *stream) at(t int) []point {
	n := len(s.ids)
	return s.locs[(t-1)*n : t*n]
}

// generate builds the stream from the seed alone: planted convoys (ids
// 1..C) merged with a uniform random-walk crowd (ids C+1..N). The two
// generators get different seeds derived from the one argument.
func generate(w workload, seed int64, ticks int) *stream {
	convoys := newPlanted(plantedConfig{
		Seed:      seed,
		NumGroups: w.Convoys,
		GroupSize: convoySize,
		NumNoise:  0,
		Extent:    w.Extent,
		Eps:       eps,
		RunLen:    w.RunLen,
		GapLen:    w.GapLen,
		Speed:     w.Speed,
	})
	crowd := newChurn(churnConfig{
		Seed:         seed ^ 0x5DEECE66D,
		NumObjects:   w.Crowd,
		Extent:       w.Extent,
		NumHubs:      0,
		MoveFraction: w.MoveFraction,
		StepSize:     w.Step,
		DropRate:     0,
	})
	// All convoys start a run at tick 1, so their run/gap cycles beat in
	// step at first and the pattern load comes in waves. Cycle lengths
	// differ by about +-6 ticks, so after convoyBurnIn ticks the phases
	// are spread evenly and the load is the same at every tick.
	for t := 0; t < convoyBurnIn; t++ {
		convoys.Next()
	}
	n := w.objects()
	s := &stream{
		ids:   make([]objectID, n),
		locs:  make([]point, 0, n*ticks),
		ticks: ticks,
	}
	for i := range s.ids {
		s.ids[i] = objectID(i + 1)
	}
	for t := 0; t < ticks; t++ {
		s.locs = append(s.locs, convoys.Next().Locs...)
		s.locs = append(s.locs, crowd.Next().Locs...)
	}
	if len(s.locs) != n*ticks {
		panic("benchmark: generator dropped records")
	}
	return s
}

// hash folds every coordinate of the stream into 64 bits (word-wise FNV-1a),
// for the determinism check: same seed, same hash.
func (s *stream) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(len(s.ids)))
	mix(uint64(s.ticks))
	for _, p := range s.locs {
		mix(math.Float64bits(p.X))
		mix(math.Float64bits(p.Y))
	}
	return h
}
