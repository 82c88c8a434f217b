package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// pacer is the open-loop schedule: tick i (from 0) is due at
// start + (i+1)*period whatever the pipeline does. The clock is injected so
// the schedule can be tested without waiting.
type pacer struct {
	start  time.Time
	period time.Duration
	now    func() time.Time
	sleep  func(time.Duration)
}

func (p *pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(i+1) * p.period)
}

// wait blocks until tick i is due and returns how late the generator is at
// that point: zero when it slept, positive when the previous push overran
// the slot. It never waits for more than the slot, and never moves a due
// instant, so lateness and stalls are charged to the ticks they delay.
func (p *pacer) wait(i int) (lag time.Duration) {
	d := p.due(i).Sub(p.now())
	if d > 0 {
		p.sleep(d)
		d = p.due(i).Sub(p.now())
	}
	if d < 0 {
		return -d
	}
	return 0
}

// runOpts selects how one pipeline run is driven.
type runOpts struct {
	Ticks int
	// InFlight > 0 is a closed loop: that many ticks may be pushed before
	// the oldest completes. Rate > 0 is an open loop at Rate ticks/s.
	InFlight int
	Rate     float64
	// Collect keeps the patterns themselves (verify); otherwise only their
	// digest is kept.
	Collect     bool
	Incremental bool // dev-only variant, not part of the benchmark command
	WorkDir     string
}

// runResult is everything read from one pipeline run, from outside it.
type runResult struct {
	Start time.Time
	// Done[i] is when OnTickComplete fired for tick i+1, as time since
	// Start in ns (0 = never).
	Done []int64
	// Due[i] is tick i+1's due instant since Start in ns (paced runs).
	Due      []int64
	MaxLag   time.Duration
	FeedBusy time.Duration
	Wall     time.Duration

	Digest   patternDigest
	Patterns []pattern

	StageNames   []string
	StageRecords []int64
	StageBusy    []time.Duration // nil when the stages ran in workers
	StageCrit    []time.Duration // nil likewise

	Ckpt                               *ckptSnapshot // nil without checkpointing
	WireBytes, WireFlushes, WireFrames int64
}

// live is a constructed, started pipeline and what is needed to stop it.
type live struct {
	pipe    *pipeline
	workers sync.WaitGroup
	stats   []workerStats
	werr    []error
	closeFn func() error
	ckptDir string
}

func baseConfig(w workload, o runOpts) pipelineConfig {
	return pipelineConfig{
		Constraints:      cons,
		Eps:              eps,
		CellWidth:        w.CellWidth,
		Metric:           metricL1,
		MinPts:           minPts,
		Parallelism:      parallelism,
		SourcePartitions: parallelism,
		Incremental:      o.Incremental,
	}
}

// construct builds and starts the pipeline: in-process, or a coordinator
// with tcpWorkers worker goroutines on loopback and a checkpoint store in a
// fresh directory under the work dir. It opens no connection of its own.
func construct(w workload, cfg pipelineConfig, workDir string) (*live, error) {
	l := &live{}
	if !w.Distributed {
		p, err := newPipeline(cfg)
		if err != nil {
			return nil, err
		}
		p.Start()
		l.pipe = p
		return l, nil
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	l.ckptDir = dir
	cfg.CheckpointInterval = ckptEvery
	cfg.CheckpointDir = dir
	coord, err := newCoordinator("127.0.0.1:0", tcpWorkers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l.closeFn = coord.Close
	l.stats = make([]workerStats, tcpWorkers)
	l.werr = make([]error, tcpWorkers)
	for i := 0; i < tcpWorkers; i++ {
		l.workers.Add(1)
		go func(i int) {
			defer l.workers.Done()
			l.stats[i], l.werr[i] = runWorker(coord.Addr())
		}(i)
	}
	p, err := newDistributed(cfg, coord)
	if err != nil {
		coord.Close()
		l.workers.Wait()
		os.RemoveAll(dir)
		return nil, err
	}
	p.Start()
	l.pipe = p
	return l, nil
}

// stop drains the pipeline, waits for the workers and removes the
// checkpoint directory.
func (l *live) stop() error {
	l.pipe.Finish()
	l.workers.Wait()
	var err error
	if l.closeFn != nil {
		err = l.closeFn()
	}
	if l.ckptDir != "" {
		if rmErr := os.RemoveAll(l.ckptDir); err == nil {
			err = rmErr
		}
	}
	for _, werr := range l.werr {
		if werr != nil {
			return fmt.Errorf("worker: %w", werr)
		}
	}
	return err
}

// pushTick feeds tick t (from 1): every record, then the source watermark.
func pushTick(p *pipeline, s *stream, t int) {
	locs := s.at(t)
	for i, id := range s.ids {
		p.PushRecord(id, locs[i], tick(t))
	}
	p.PushSourceWatermark(tick(t))
}

// runPipeline drives the real pipeline over the first o.Ticks ticks of the
// stream from this one goroutine and reads its exported counters.
func runPipeline(w workload, s *stream, o runOpts) (*runResult, error) {
	res := &runResult{Done: make([]int64, o.Ticks)}
	cfg := baseConfig(w, o)

	var sinkMu sync.Mutex // distributed sinks may deliver from two readers
	cfg.OnPattern = func(p pattern) {
		sinkMu.Lock()
		if o.Collect {
			res.Patterns = append(res.Patterns, p)
		}
		res.Digest.add(p)
		sinkMu.Unlock()
	}
	var tokens chan struct{}
	if o.InFlight > 0 {
		tokens = make(chan struct{}, o.InFlight)
	}
	cfg.OnTickComplete = func(t tick) {
		if i := int(t) - 1; i >= 0 && i < len(res.Done) {
			atomic.StoreInt64(&res.Done[i], int64(time.Since(res.Start)))
		}
		if tokens != nil {
			<-tokens
		}
	}

	wb0, wf0, wr0 := wireCounters()
	l, err := construct(w, cfg, o.WorkDir)
	if err != nil {
		return nil, err
	}
	res.Start = time.Now() // before the first push, so ordered before any completion

	if o.Rate > 0 {
		res.Due = make([]int64, o.Ticks)
		pc := &pacer{
			start:  res.Start,
			period: time.Duration(float64(time.Second) / o.Rate),
			now:    time.Now,
			sleep:  time.Sleep,
		}
		for i := 0; i < o.Ticks; i++ {
			res.Due[i] = int64(pc.due(i).Sub(res.Start))
			if lag := pc.wait(i); lag > res.MaxLag {
				res.MaxLag = lag
			}
			t0 := time.Now()
			pushTick(l.pipe, s, i+1)
			res.FeedBusy += time.Since(t0)
		}
	} else {
		for i := 0; i < o.Ticks; i++ {
			if tokens != nil {
				tokens <- struct{}{}
			}
			t0 := time.Now()
			pushTick(l.pipe, s, i+1)
			res.FeedBusy += time.Since(t0)
		}
	}

	p := l.pipe
	if err := l.stop(); err != nil {
		return nil, err
	}
	res.Wall = time.Since(res.Start)

	res.StageNames = p.StageNames()
	if w.Distributed {
		// Workers report record counts only (README "Known gaps").
		res.StageRecords = make([]int64, len(res.StageNames))
		for _, st := range l.stats {
			for i, r := range st.Records {
				res.StageRecords[i] += r
			}
		}
		ck := p.CheckpointStats()
		res.Ckpt = &ck
	} else {
		res.StageRecords = p.StageRecords()
		res.StageBusy = p.StageBusy()
		res.StageCrit = make([]time.Duration, len(res.StageNames))
		for i := range res.StageNames {
			for _, b := range p.StageSubtaskBusy(i) {
				if b > res.StageCrit[i] {
					res.StageCrit[i] = b
				}
			}
		}
	}
	wb1, wf1, wr1 := wireCounters()
	res.WireBytes, res.WireFlushes, res.WireFrames = wb1-wb0, wf1-wf0, wr1-wr0
	return res, nil
}

// completedSpan is the time from the completion of tick `from` to the
// completion of tick `to` (tick numbers from 1), or false if either never
// completed.
func (r *runResult) completedSpan(from, to int) (time.Duration, bool) {
	a, b := r.Done[from-1], r.Done[to-1]
	if a == 0 || b == 0 {
		return 0, false
	}
	return time.Duration(b - a), true
}
