// Command benchmark is the repo benchmark defined by ISSUE 11: four
// streaming workloads driven through the default production pipeline, with
// paced-latency and saturated-throughput metrics and a per-layer trace
// taken from outside the program. See README.md beside this file.
//
//	bash benchmark/run.sh --workload crowd-join --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 42                  # all four, full report
//	bash benchmark/run.sh --sets 2 --out benchmark/out/repeat.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// contractPerLayer are the per-layer metrics listed in BENCHMARK.json: the
// ones measured on all four workloads. The full report prints more, with
// null where a workload cannot measure one.
var contractPerLayer = []string{
	"feed_busy_s", "generator_lag_ms",
	"stage_records.source", "stage_records.allocate", "stage_records.rangejoin",
	"stage_records.cluster", "stage_records.enumerate",
	"seq.allocate_ns_rec", "seq.rangejoin_ns_rec", "seq.cluster_ns_rec", "seq.enum_ns_rec",
	"seq.codec_ns_rec", "seq.codec_bytes_rec", "seq.codec_allocs_rec", "seq.exchange_ns_rec",
	"cells_per_tick", "replication_factor", "pairs_per_tick", "clusters_per_tick",
	"partitions_per_tick", "patterns_per_tick",
	"seq_krec_s", "speedup_vs_seq",
	"wire_bytes_per_rec", "ckpt_cuts",
	"cpu_s", "alloc_bytes_per_rec", "gc_pause_ms", "peak_rss_mb",
}

// commit is stamped by run.sh; a plain `go run` leaves it unknown.
var commit = "unknown"

type hostBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1min"`
}

func host() hostBlock {
	h := hostBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		LoadAvg1:   -1,
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1 = v
			}
		}
	}
	return h
}

type suite struct {
	Host      hostBlock `json:"host"`
	Seed      int64     `json:"seed"`
	Workloads []*report `json:"workloads"`
	Claim     any       `json:"claim"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func runSuite(names []string, o benchOpts) (*suite, error) {
	st := &suite{Host: host(), Seed: o.Seed}
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		rep, err := runWorkload(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		st.Workloads = append(st.Workloads, rep)
	}
	return st, nil
}

func (st *suite) correct() bool {
	for _, r := range st.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func contractLine(r *report, traced bool) ([]byte, error) {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]m{}
	if traced {
		for _, name := range contractPerLayer {
			v, ok := r.PerLayer[name]
			if !ok || v.Value == nil {
				return nil, fmt.Errorf("per-layer metric %s was not measured on %s", name, r.Workload)
			}
			metrics[name] = m{*v.Value, v.Unit}
		}
	} else {
		for _, g := range gated {
			v := r.EndToEnd[g.Name]
			metrics[g.Name] = m{*v.Value, v.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool         `json:"correct"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func emit(v any, out string) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	_, err = os.Stdout.Write(data)
	return err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 42, "seed of the generated streams")
		seconds      = flag.Float64("seconds", 20, "length of the two timed phases together")
		trace        = flag.Int("trace", 0, "1: write the span trace and print the per-layer metrics in the result line")
		out          = flag.String("out", "", "also write the full JSON report to this file")
		sets         = flag.Int("sets", 1, "run the whole suite this many times and compare the sets")
		scaleName    = flag.String("scale", "full", "full, or smoke (500 objects x 60 ticks, no timing claim)")
		variant      = flag.String("variant", "", "dev only: incremental (not part of the benchmark command)")
		workDir      = flag.String("workdir", ".bench_build/work", "directory for temporary checkpoint stores")
		traceDir     = flag.String("tracedir", "benchmark/out", "directory for trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		logf("unexpected argument %q", flag.Arg(0))
		os.Exit(2)
	}
	// Numbers should measure the program, not the box: two scheduler
	// threads as on the sizing box, whatever this host has.
	runtime.GOMAXPROCS(parallelism)

	sc, err := scaleByName(*scaleName)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	o := benchOpts{Seed: *seed, Seconds: *seconds, Scale: sc, WorkDir: *workDir, Log: logf}
	switch *variant {
	case "":
	case "incremental":
		o.Incremental = true
	default:
		logf("unknown variant %q", *variant)
		os.Exit(2)
	}
	if *trace == 1 {
		o.TraceDir = *traceDir
	}

	h := host()
	logf("host: nproc=%d GOMAXPROCS=%d %s commit=%s load=%.2f", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.LoadAvg1)
	if h.LoadAvg1 > 0.5 {
		logf("warning: 1-min load average %.2f > 0.5, timings will be noisy", h.LoadAvg1)
	}

	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	if *workloadName != "" {
		if _, err := workloadByName(*workloadName); err != nil {
			logf("%v", err)
			os.Exit(2)
		}
		names = []string{*workloadName}
	}

	if *sets > 1 {
		rp, err := repeatSets(names, o, *sets)
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		if err := emit(rp, *out); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		if !rp.OK {
			os.Exit(1)
		}
		return
	}

	st, err := runSuite(names, o)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if err := emit(st, *out); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if *workloadName != "" {
		line, err := contractLine(st.Workloads[0], *trace == 1)
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	if !st.correct() {
		for _, r := range st.Workloads {
			for _, p := range r.Problems {
				logf("%s: %s", r.Workload, p)
			}
		}
		os.Exit(1)
	}
}
