package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
)

var tinyScale = Scale{Objects: 150, Ticks: 40}

func TestMakeDatasetAllNames(t *testing.T) {
	for _, name := range []string{"geolife", "taxi", "brinkhoff", "planted", "churn"} {
		d := MakeDataset(name, 1, tinyScale)
		if d.Name != name {
			t.Errorf("name = %q", d.Name)
		}
		if len(d.Snapshots) != tinyScale.Ticks {
			t.Errorf("%s: %d snapshots", name, len(d.Snapshots))
		}
		if d.Extent <= 0 {
			t.Errorf("%s: extent %v", name, d.Extent)
		}
		if d.Locations == 0 {
			t.Errorf("%s: no locations", name)
		}
	}
}

func TestMakeDatasetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset should panic")
		}
	}()
	MakeDataset("nope", 1, tinyScale)
}

func TestRunOnceProducesMeasurements(t *testing.T) {
	d := MakeDataset("taxi", 2, tinyScale)
	p := DefaultParams()
	p.Parallelism = 2
	row, err := runOnce(d, d.config(p, core.RJC, core.NoEnum))
	if err != nil {
		t.Fatal(err)
	}
	if row.Throughput <= 0 {
		t.Errorf("throughput = %v", row.Throughput)
	}
	if row.LatencyMS <= 0 {
		t.Errorf("latency = %v", row.LatencyMS)
	}
	if row.ClusterMS <= 0 || row.ClusterMS > row.LatencyMS+1 {
		t.Errorf("cluster latency %v vs total %v", row.ClusterMS, row.LatencyMS)
	}
}

func TestTableRenderers(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf, 3, tinyScale)
	if !strings.Contains(buf.String(), "geolife") {
		t.Error("table2 missing dataset rows")
	}
	buf.Reset()
	Table3(&buf)
	out := buf.String()
	for _, want := range []string{"lg", "eps", "M", "K", "L", "G", "Or", "N"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q", want)
		}
	}
}

func TestPrintSeries(t *testing.T) {
	var buf bytes.Buffer
	PrintSeries(&buf, "demo", "x", []Series{
		{Label: "rjc", Rows: []Row{
			{X: "1", LatencyMS: 1.5, Throughput: 100, Failed: false},
			{X: "2", LatencyMS: 99, Throughput: 1, Failed: true},
		}},
	})
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "rjc") {
		t.Error("series header missing")
	}
	if !strings.Contains(out, "[OVERFLOW]") {
		t.Error("overflow marker missing")
	}
}

// The churn dataset helper must honor its knobs (used by cmd/bench's
// incremental section and cmd/datagen).
func TestChurnDatasetKnobs(t *testing.T) {
	d := MakeChurnDataset(3, Scale{Objects: 50, Ticks: 20}, 0, 0)
	if d.Name != "churn" || len(d.Snapshots) != 20 {
		t.Fatalf("dataset %q with %d snapshots", d.Name, len(d.Snapshots))
	}
	// MoveFraction 0: every object that reports twice reports the same
	// location.
	locs := make(map[model.ObjectID]geo.Point)
	for _, s := range d.Snapshots {
		for i, id := range s.Objects {
			if prev, ok := locs[id]; ok && prev != s.Locs[i] {
				t.Fatalf("object %d moved under MoveFraction 0", id)
			}
			locs[id] = s.Locs[i]
		}
	}
}

// The front_end section's equality checks are hard failures inside the
// runner, so a successful small-scale build means classic and incremental
// partitioned runs (inproc, tcp, kill-resume 4->2) all matched the
// sequential reference byte for byte.
func TestFrontEndReportSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run pipeline sweep")
	}
	rep, err := runPipelineFrontEnd(1234, Scale{Objects: 400, Ticks: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 6 {
		t.Fatalf("%d runs, want 6 (2 modes x parallelism 1/2/4)", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if r.Records == 0 || r.AllocateRecordsPerSec <= 0 {
			t.Errorf("%s/%d: records=%d rate=%v", r.Mode, r.Parallelism, r.Records, r.AllocateRecordsPerSec)
		}
	}
	if !rep.TCPPatternsMatch || !rep.ResumePatternsMatch {
		t.Errorf("equivalence flags not set: tcp=%v resume=%v", rep.TCPPatternsMatch, rep.ResumePatternsMatch)
	}
}
