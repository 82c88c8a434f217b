package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// value is one printed metric. Value is nil (JSON null) where the program
// exports nothing to read it from (README "Known gaps"); Samples is set
// where the value summarises a sample; Bound only on gated metrics.
type value struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples,omitempty"`
	Bound   float64  `json:"bound,omitempty"`
}

func num(v float64, unit string) value { return value{Value: &v, Unit: unit} }
func null(unit string) value           { return value{Unit: unit} }

// gated names the end-to-end metrics, their direction and the share by
// which each may worsen before a change counts as a regression. It must
// agree with BENCHMARK.json (a test checks that).
var gated = []struct {
	Name   string
	Unit   string
	Higher bool
	Bound  float64
}{
	{"throughput_krec_s", "krec/s", true, 0.21},
	{"latency_p50_ms", "ms", false, 0.21},
	{"latency_p95_ms", "ms", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// report is one workload's full result.
type report struct {
	Workload    string           `json:"workload"`
	Why         string           `json:"why"`
	Seed        int64            `json:"seed"`
	Scale       string           `json:"scale"`
	Variant     string           `json:"variant,omitempty"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedShare float64          `json:"failed_share"`
	Problems    []string         `json:"problems,omitempty"`
	EndToEnd    map[string]value `json:"end_to_end"`
	Ungated     map[string]value `json:"ungated"`
	PerLayer    map[string]value `json:"per_layer"`
	Run         map[string]any   `json:"run"`
	Claim       any              `json:"claim"` // this benchmark claims no gain
}

// benchOpts is what the command line chooses for a run.
type benchOpts struct {
	Seed        int64
	Seconds     float64
	Scale       scale
	Incremental bool
	WorkDir     string
	TraceDir    string // "" = write no trace file
	Log         func(format string, args ...any)
}

func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rusage returns the process's CPU time so far and its peak resident set.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuJiffies reads the host's cumulative CPU accounting: all jiffies and
// those stolen by the hypervisor. A run with a high stolen share measured
// the neighbours, not the program.
func cpuJiffies() (total, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 8 {
			stolen = v
		}
	}
	return total, stolen
}

// setUp generates the stream and brings a pipeline up to its first accepted
// record, several times over, and returns the last stream with the median
// time of each part. Every generation must give the same stream.
func setUp(w workload, o benchOpts, ticks int) (s *stream, genS, constructS float64, err error) {
	var gens, cons []float64
	var first uint64
	for i := 0; i < o.Scale.SetupRuns; i++ {
		s = nil
		settle()
		t0 := time.Now()
		s = generate(w, o.Seed, ticks)
		gens = append(gens, time.Since(t0).Seconds())
		if h := s.hash(); i == 0 {
			first = h
		} else if h != first {
			return nil, 0, 0, fmt.Errorf("generator is not deterministic: stream hash %x then %x", first, h)
		}

		t0 = time.Now()
		l, err := construct(w, baseConfig(w, runOpts{Incremental: o.Incremental}), o.WorkDir)
		if err != nil {
			return nil, 0, 0, err
		}
		l.pipe.PushRecord(s.ids[0], s.at(1)[0], 1)
		cons = append(cons, time.Since(t0).Seconds())
		if err := l.stop(); err != nil {
			return nil, 0, 0, err
		}
	}
	return s, median(gens), median(cons), nil
}

// canonical renders patterns as the repo's pattern CSV with the lines
// sorted, so two runs that found the same patterns in any order give the
// same bytes.
func canonical(ps []pattern) ([]byte, error) {
	var buf bytes.Buffer
	if err := writePatternsCSV(&buf, ps); err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte{'\n'})
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, nil), nil
}

// runWorkload runs one workload's three phases and computes every metric.
// A returned error means the benchmark could not run; a wrong output is
// reported in the result (Correct false, every tick failed).
func runWorkload(w workload, o benchOpts) (*report, error) {
	full := w
	w = w.scaled(o.Scale)
	sc := o.Scale
	n := w.timedTicks(sc, o.Seconds)
	verifyTicks := sc.VerifyTicks
	gen := n
	if verifyTicks > gen {
		gen = verifyTicks
	}
	rep := &report{
		Workload: full.Name, Why: full.Why, Seed: o.Seed, Scale: sc.Name,
		EndToEnd: map[string]value{}, Ungated: map[string]value{}, PerLayer: map[string]value{},
	}
	if o.Incremental {
		rep.Variant = "incremental"
	}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	// --- set-up -----------------------------------------------------------
	o.Log("%s: set-up x%d (%d objects x %d ticks)", w.Name, sc.SetupRuns, w.objects(), gen)
	s, genS, constructS, err := setUp(w, o, gen)
	if err != nil {
		return nil, err
	}
	nObj := s.objects()

	// --- verify: sequential replay vs the real pipeline ---------------------
	settle()
	o.Log("%s: verify, %d ticks", w.Name, verifyTicks)
	seq, err := sequentialReplay(w, s, verifyTicks)
	if err != nil {
		return nil, err
	}
	want, err := canonical(seq.Patterns)
	if err != nil {
		return nil, err
	}
	seqPatterns := len(seq.Patterns)
	seq.Patterns = nil
	settle()
	vrun, err := runPipeline(w, s, runOpts{
		Ticks: verifyTicks, InFlight: maxInFlight, Collect: true,
		Incremental: o.Incremental, WorkDir: o.WorkDir,
	})
	if err != nil {
		return nil, err
	}
	got, err := canonical(vrun.Patterns)
	if err != nil {
		return nil, err
	}
	switch {
	case len(want) == 0:
		problem("verify: the sequential reference found no pattern in %d ticks (weak check)", verifyTicks)
	case !bytes.Equal(want, got):
		problem("verify: pipeline output differs from the sequential reference (%d vs %d patterns)",
			len(vrun.Patterns), seqPatterns)
	}
	coverage := rootCoverage(seq.Spans)
	if coverage < 0.98 {
		problem("trace: child spans cover %.1f%% of the tick roots, want >= 98%%", 100*coverage)
	}
	if o.TraceDir != "" {
		if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.TraceDir, "trace-"+full.Name+".json")
		if err := writeTrace(path, traceFile{
			Workload: full.Name, Seed: o.Seed, Spans: seq.Spans,
			Counts: seq.countsPerTick(),
		}); err != nil {
			return nil, err
		}
	}
	vrun.Patterns, seq.Spans = nil, nil

	// --- saturate: closed loop ------------------------------------------------
	settle()
	o.Log("%s: saturate, %d ticks, %d in flight", w.Name, n, maxInFlight)
	jif0, stolen0 := cpuJiffies()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := rusage()
	sat, err := runPipeline(w, s, runOpts{
		Ticks: n, InFlight: maxInFlight, Incremental: o.Incremental, WorkDir: o.WorkDir,
	})
	if err != nil {
		return nil, err
	}
	cpu1, peakMB := rusage()
	cpuS := cpu1 - cpu0
	runtime.ReadMemStats(&ms1)

	// --- paced: open loop -------------------------------------------------------
	settle()
	o.Log("%s: paced, %d ticks at %g ticks/s", w.Name, n, w.PacedRate)
	pac, err := runPipeline(w, s, runOpts{
		Ticks: n, Rate: w.PacedRate, Incremental: o.Incremental, WorkDir: o.WorkDir,
	})
	if err != nil {
		return nil, err
	}
	jif1, stolen1 := cpuJiffies()
	if !sat.Digest.equal(&pac.Digest) {
		problem("saturate and paced disagree on the output: %d patterns (hash %016x) vs %d (hash %016x)",
			sat.Digest.Count, sat.Digest.Sum, pac.Digest.Count, pac.Digest.Sum)
	}
	if sat.Digest.Count == 0 {
		problem("saturate found no pattern (weak check)")
	}

	// --- end-to-end metrics ----------------------------------------------------
	warm := sc.Warmup
	timedRecords := float64((n - warm) * nObj)
	satSpan, ok := sat.completedSpan(warm, n)
	if !ok {
		problem("saturate: tick %d or %d never completed", warm, n)
		satSpan = sat.Wall
	}
	throughput := timedRecords / satSpan.Seconds() / 1e3

	period := 1e3 / w.PacedRate // ms
	deadline := deadlineX * period
	var lat []float64
	failed := 0
	for i := warm; i < n; i++ {
		if pac.Done[i] == 0 {
			failed++
			continue
		}
		ms := float64(pac.Done[i]-pac.Due[i]) / 1e6
		if ms > deadline {
			failed++
		}
		lat = append(lat, ms)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no paced tick completed", w.Name)
	}
	sort.Float64s(lat)

	rep.Attempted = n - warm
	rep.Failed = failed
	rep.Correct = len(rep.Problems) == 0
	if !rep.Correct {
		rep.Failed = rep.Attempted
	}
	rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)

	e2e := map[string]struct {
		v       float64
		samples int
	}{
		"throughput_krec_s": {throughput, n - warm},
		"latency_p50_ms":    {percentile(lat, 0.50), len(lat)},
		"latency_p95_ms":    {percentile(lat, 0.95), len(lat)},
		"setup_s":           {genS + constructS, sc.SetupRuns},
	}
	for _, g := range gated {
		m := e2e[g.Name]
		v := num(m.v, g.Unit)
		v.Samples, v.Bound = m.samples, g.Bound
		rep.EndToEnd[g.Name] = v
	}
	rep.Ungated["latency_p99_ms"] = num(percentile(lat, 0.99), "ms")
	rep.Ungated["latency_max_ms"] = num(lat[len(lat)-1], "ms")
	rep.Ungated["gen_s"] = num(genS, "s")
	rep.Ungated["construct_s"] = num(constructS, "s")

	// --- per-layer metrics -----------------------------------------------------
	pl := rep.PerLayer
	satRecords := float64(n * nObj)
	pl["feed_busy_s"] = num(sat.FeedBusy.Seconds(), "s")
	pl["generator_lag_ms"] = num(float64(pac.MaxLag)/1e6, "ms")
	var busySum float64
	for i, name := range sat.StageNames {
		pl["stage_records."+name] = num(float64(sat.StageRecords[i]), "count")
		if sat.StageBusy == nil {
			pl["stage_busy_s."+name] = null("s")
			pl["stage_crit_s."+name] = null("s")
			pl["stage_util."+name] = null("share")
			continue
		}
		busySum += sat.StageBusy[i].Seconds()
		pl["stage_busy_s."+name] = num(sat.StageBusy[i].Seconds(), "s")
		pl["stage_crit_s."+name] = num(sat.StageCrit[i].Seconds(), "s")
		pl["stage_util."+name] = num(sat.StageCrit[i].Seconds()/sat.Wall.Seconds(), "share")
	}
	seqRecs := float64(seq.Records)
	for _, layer := range []string{"allocate", "rangejoin", "cluster", "enum", "codec", "exchange"} {
		pl["seq."+layer+"_ns_rec"] = num(seq.nsPerRecord("seq."+layer), "ns/rec")
	}
	pl["seq.codec_bytes_rec"] = num(float64(seq.CodecBytes)/seqRecs, "B/rec")
	pl["seq.codec_allocs_rec"] = num(float64(seq.CodecAllocs)/seqRecs, "1/rec")
	for name, v := range seq.countsPerTick() {
		pl[name] = num(v, "count")
	}
	pl["replication_factor"] = num(float64(seq.Replicas)/seqRecs, "ratio")
	seqKrecS := seqRecs / (float64(seq.detectionNs()) / 1e9) / 1e3
	pl["seq_krec_s"] = num(seqKrecS, "krec/s")
	pl["speedup_vs_seq"] = num(throughput/seqKrecS, "ratio")

	if w.Distributed {
		pl["wire_bytes_per_rec"] = num(float64(sat.WireBytes)/satRecords, "B/rec")
		pl["wire_frames_per_flush"] = num(float64(sat.WireFrames)/float64(max(sat.WireFlushes, 1)), "ratio")
		cuts := sat.Ckpt.FullCuts + sat.Ckpt.DeltaCuts
		pl["ckpt_cuts"] = num(float64(cuts), "count")
		// Capture, encode and the bytes they produce are counted in the
		// workers and not shipped to the coordinator's stats: zero there
		// means "not visible".
		if sat.Ckpt.Bytes == 0 {
			pl["ckpt_bytes_per_cut"] = null("B")
		} else {
			pl["ckpt_bytes_per_cut"] = num(float64(sat.Ckpt.Bytes)/float64(max(cuts, 1)), "B")
		}
		pl["ckpt_capture_ms"] = msOrNull(sat.Ckpt.Capture)
		pl["ckpt_encode_ms"] = msOrNull(sat.Ckpt.Encode)
		pl["ckpt_upload_ms"] = num(float64(sat.Ckpt.Upload)/1e6, "ms")
	} else {
		pl["wire_bytes_per_rec"] = num(0, "B/rec")
		pl["wire_frames_per_flush"] = null("ratio")
		pl["ckpt_cuts"] = num(0, "count")
		pl["ckpt_bytes_per_cut"] = null("B")
		pl["ckpt_capture_ms"] = null("ms")
		pl["ckpt_encode_ms"] = null("ms")
		pl["ckpt_upload_ms"] = null("ms")
	}

	pl["cpu_s"] = num(cpuS, "s")
	if sat.StageBusy == nil {
		pl["cpu_unaccounted_share"] = null("share")
	} else {
		// feed_busy_s is wall time inside PushRecord, waiting on backpressure
		// included, so it is no CPU cost and stays out of this share; the
		// feeder's own CPU counts as unaccounted, like the sink's.
		pl["cpu_unaccounted_share"] = num(1-busySum/cpuS, "share")
	}
	pl["alloc_bytes_per_rec"] = num(float64(ms1.TotalAlloc-ms0.TotalAlloc)/satRecords, "B/rec")
	pl["gc_pause_ms"] = num(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	pl["peak_rss_mb"] = num(peakMB, "MB")

	rep.Run = map[string]any{
		"objects":           nObj,
		"verify_ticks":      verifyTicks,
		"timed_ticks":       n,
		"warmup_ticks":      warm,
		"in_flight":         maxInFlight,
		"paced_ticks_per_s": w.PacedRate,
		"deadline_ms":       deadline,
		"saturate_s":        sat.Wall.Seconds(),
		"paced_s":           pac.Wall.Seconds(),
		"saturate_ticks_s":  float64(n-warm) / satSpan.Seconds(),
		"stream_hash":       fmt.Sprintf("%016x", s.hash()),
		"pattern_count":     sat.Digest.Count,
		"pattern_hash":      fmt.Sprintf("%016x", sat.Digest.Sum),
		"verify_patterns":   seq.PatternCount,
		"trace_coverage":    coverage,
		"bottleneck":        bottleneck(sat),
		"host_steal_share":  (stolen1 - stolen0) / max(jif1-jif0, 1),
	}
	return rep, nil
}

func msOrNull(d time.Duration) value {
	if d == 0 {
		return null("ms")
	}
	return num(float64(d)/1e6, "ms")
}

// bottleneck names the stage with the highest critical-path utilisation.
func bottleneck(r *runResult) any {
	if r.StageCrit == nil {
		return nil
	}
	best := 0
	for i := range r.StageCrit {
		if r.StageCrit[i] > r.StageCrit[best] {
			best = i
		}
	}
	return r.StageNames[best]
}

// countsPerTick are the counts taken at the layer boundaries of the
// sequential replay, per tick.
func (r *seqResult) countsPerTick() map[string]float64 {
	t := float64(r.Ticks)
	return map[string]float64{
		"cells_per_tick":      float64(r.Cells) / t,
		"pairs_per_tick":      float64(r.Pairs) / t,
		"clusters_per_tick":   float64(r.Clusters) / t,
		"partitions_per_tick": float64(r.Partitions) / t,
		"patterns_per_tick":   float64(r.PatternCount) / t,
	}
}
