package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(smokeScale)
		a := generate(w, 7, 30).hash()
		if b := generate(w, 7, 30).hash(); a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", w.Name, a, b)
		}
		if c := generate(w, 8, 30).hash(); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream hash %x", w.Name, a)
		}
	}
}

func TestStreamLayout(t *testing.T) {
	w := workloads[0].scaled(smokeScale)
	s := generate(w, 1, 5)
	if s.objects() != w.objects() || len(s.at(5)) != w.objects() {
		t.Fatalf("stream has %d objects, tick 5 has %d, want %d", s.objects(), len(s.at(5)), w.objects())
	}
	for i, id := range s.ids {
		if int(id) != i+1 {
			t.Fatalf("ids[%d] = %d, want %d (the sequential replay maps id-1 to position)", i, id, i+1)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9}, 0.95); got != 9 {
		t.Errorf("percentile({3,9}, 0.95) = %g, want 9", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "tick", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0}, // overlaps a by 10
		{Name: "c", StartNs: 70, EndNs: 90, Parent: 0},
		{Name: "a.inner", StartNs: 15, EndNs: 25, Parent: 1},
	}
	want := []int64{100 - (50 + 20), 30 - 10, 30, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if cov := rootCoverage(spans); math.Abs(cov-0.7) > 1e-9 {
		t.Errorf("rootCoverage = %g, want 0.7", cov)
	}
}

// A push that overruns its slot must not move later due instants: the next
// tick is late by the overrun, and a completion is charged from the due
// instant, not from when the generator got round to sending.
func TestPacerChargesLatenessToDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	var slept []time.Duration
	p := &pacer{
		start:  start,
		period: 10 * time.Millisecond,
		now:    func() time.Time { return now },
		sleep:  func(d time.Duration) { slept = append(slept, d); now = now.Add(d) },
	}
	if lag := p.wait(0); lag != 0 || now != start.Add(10*time.Millisecond) {
		t.Fatalf("tick 0: lag %v at %v, want 0 at start+10ms", lag, now.Sub(start))
	}
	now = now.Add(25 * time.Millisecond) // pushing tick 0 stalls on backpressure for 25ms
	if lag := p.wait(1); lag != 15*time.Millisecond {
		t.Fatalf("tick 1: lag %v, want 15ms (due at 20ms, reached at 35ms)", lag)
	}
	if len(slept) != 1 {
		t.Fatalf("a late generator must not sleep, slept %v", slept)
	}
	if due := p.due(1).Sub(start); due != 20*time.Millisecond {
		t.Fatalf("tick 1 due at %v, want 20ms whatever happened before", due)
	}
	done := now.Add(3 * time.Millisecond) // tick 1 takes 3ms once sent
	if lat := done.Sub(p.due(1)); lat != 18*time.Millisecond {
		t.Fatalf("tick 1 latency %v, want 18ms = 15ms lateness + 3ms", lat)
	}
	now = now.Add(time.Millisecond)
	if lag := p.wait(3); lag != 0 || now != start.Add(40*time.Millisecond) {
		t.Fatalf("tick 3: lag %v at %v, want 0 at start+40ms (schedule caught up)", lag, now.Sub(start))
	}
}

func TestPatternLineMatchesRepoCSV(t *testing.T) {
	ps := []pattern{
		{Objects: []objectID{3, 14, 15}, Times: []tick{9, 10, 12}},
		{Objects: []objectID{1}, Times: []tick{7}},
	}
	var want bytes.Buffer
	if err := writePatternsCSV(&want, ps); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, p := range ps {
		got = append(appendPatternLine(got, p), '\n')
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("pattern lines %q, repo CSV %q", got, want.Bytes())
	}
	var a, b patternDigest
	a.add(ps[0])
	a.add(ps[1])
	b.add(ps[1])
	b.add(ps[0])
	if !a.equal(&b) {
		t.Error("digest depends on pattern order")
	}
	b.add(ps[0])
	if a.equal(&b) {
		t.Error("digest ignores an extra pattern")
	}
}

func TestCompareSetsMarksUnresolved(t *testing.T) {
	mk := func(thr, p50 float64) *suite {
		r := &report{Workload: "w", EndToEnd: map[string]value{}}
		for _, g := range gated {
			r.EndToEnd[g.Name] = num(1, g.Unit)
		}
		r.EndToEnd["throughput_krec_s"] = num(thr, "krec/s")
		r.EndToEnd["latency_p50_ms"] = num(p50, "ms")
		return &suite{Workloads: []*report{r}}
	}
	rows, ok := compareSets([]*suite{mk(100, 20), mk(101, 30)})
	if ok {
		t.Error("a p50 of 20 then 30 ms is outside every bound")
	}
	for _, row := range rows {
		want := "ok"
		if row.Metric == "latency_p50_ms" {
			want = "unresolved"
		}
		if row.Status != want {
			t.Errorf("%s: status %s, want %s (spread %.3f, bound %.3f)", row.Metric, row.Status, want, row.Spread, row.Bound)
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json and the program must name the same workloads and metrics
// with the same units, directions and bounds.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(gated))
	}
	for i, g := range gated {
		better := "lower"
		if g.Higher {
			better = "higher"
		}
		d := doc.EndToEnd[i]
		if d.Name != g.Name || d.Unit != g.Unit || d.Better != better || d.Bound != g.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, d, g)
		}
	}
	if len(doc.PerLayer) != len(contractPerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(contractPerLayer))
	}
	for i, name := range contractPerLayer {
		if doc.PerLayer[i].Name != name {
			t.Errorf("per-layer %d: BENCHMARK.json %q, program %q", i, doc.PerLayer[i].Name, name)
		}
	}
}

// The CI hook: every workload, the TCP + checkpoint one included, end to
// end at 500 objects x 60 ticks. It checks outputs and that both result
// lines can be built; it makes no timing claim.
func TestSmokeAllWorkloads(t *testing.T) {
	units := map[string]string{}
	for _, m := range readBenchmarkJSON(t).PerLayer {
		units[m.Name] = m.Unit
	}
	dir := t.TempDir()
	o := benchOpts{
		Seed: 3, Seconds: 1, Scale: smokeScale, WorkDir: dir, TraceDir: dir,
		Log: func(string, ...any) {},
	}
	for _, w := range workloads {
		rep, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: %v", w.Name, rep.Problems)
		}
		if rep.Run["pattern_count"].(int64) == 0 {
			t.Errorf("%s: no patterns at smoke scale", w.Name)
		}
		for _, traced := range []bool{false, true} {
			if _, err := contractLine(rep, traced); err != nil {
				t.Errorf("%s: result line (trace %v): %v", w.Name, traced, err)
			}
		}
		for name, unit := range units {
			if got := rep.PerLayer[name].Unit; got != unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, name, got, unit)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		if w.Distributed {
			if v := rep.PerLayer["ckpt_cuts"].Value; v == nil || *v < 1 {
				t.Errorf("%s: no checkpoint was cut", w.Name)
			}
			if v := rep.PerLayer["wire_bytes_per_rec"].Value; v == nil || *v <= 0 {
				t.Errorf("%s: no bytes on the wire", w.Name)
			}
			if rep.PerLayer["stage_busy_s.rangejoin"].Value != nil {
				t.Errorf("%s: stage busy time appeared on workers; update the README's known gaps", w.Name)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temporary checkpoint store %s was left behind", e.Name())
		}
	}
}
