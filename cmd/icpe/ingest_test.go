package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/enum"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/ref"
)

// buildDatagen compiles the datagen binary once per test.
func buildDatagen(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "datagen")
	cmd := exec.Command("go", "build", "-o", bin, "../datagen")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build datagen: %v\n%s", err, out)
	}
	return bin
}

// Two real publisher OS processes stream disjoint fleets over TCP into one
// icpe process running a partitioned source (-source-partitions 2); the
// sorted pattern output must be byte-identical to the sequential reference
// over the merged stream. The publishers are completely unsynchronized
// (no pacing) — a slack larger than the stream keeps every record inside
// the coverage window, so assembly content is skew-invariant and the
// comparison is deterministic.
func TestTwoPublisherProcessesPartitionedSource(t *testing.T) {
	const (
		objects = 40
		ticks   = 80
		offsetB = 1000
	)
	icpeBin := buildICPE(t)
	datagenBin := buildDatagen(t)
	// bench's planted datasets use groups of 20, so the significance
	// constraint must sit near the group size or the subset enumeration
	// explodes into millions of pattern lines.
	detArgs := []string{"-M", "18", "-K", "6", "-L", "3", "-G", "3",
		"-eps", strconv.FormatFloat(datagen.DefaultPlanted(1).Eps, 'g', -1, 64),
		"-minpts", "4", "-parallelism", "3"}

	// Oracle: the sequential reference over the merged stream (fleet A +
	// fleet B with -id-offset), with the detection flags above. The
	// datasets mirror exactly what the datagen CLI publishes for the same
	// flags.
	fleetA := bench.MakeDataset("planted", 1, bench.Scale{Objects: objects, Ticks: ticks})
	fleetB := bench.MakeDataset("planted", 2, bench.Scale{Objects: objects, Ticks: ticks})
	merged := make([]*model.Snapshot, ticks)
	for i := range merged {
		merged[i] = &model.Snapshot{Tick: fleetA.Snapshots[i].Tick}
		for _, d := range []*bench.Dataset{&fleetA, &fleetB} {
			off := 0
			if d == &fleetB {
				off = offsetB
			}
			s := d.Snapshots[i]
			for j, obj := range s.Objects {
				merged[i].Add(obj+model.ObjectID(off), s.Locs[j])
			}
		}
	}
	eps := datagen.DefaultPlanted(1).Eps
	var oracleOut strings.Builder
	for _, p := range ref.Patterns(merged, model.Constraints{M: 18, K: 6, L: 3, G: 3},
		eps, 4*eps, geo.L1, 4, enum.NewFBA) {
		fmt.Fprintf(&oracleOut, "pattern %s\n", p)
	}
	want := patternLines(oracleOut.String())
	if len(want) == 0 {
		t.Fatal("oracle found no patterns; weak test")
	}

	// Partitioned listener: slack beyond the stream length makes release
	// purely flush-driven, so arbitrary publisher skew cannot drop records.
	args := append(detArgs,
		"-listen", "127.0.0.1:0", "-duration", "5m",
		"-source-partitions", "2", "-slack", strconv.Itoa(10*ticks))
	srv := exec.Command(icpeBin, args...)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	srv.Stdout = &stdout
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := strings.TrimSpace(line[i+len("listening on "):])
				select {
				case addrCh <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(20 * time.Second):
		t.Fatal("icpe never announced its listen address")
	}

	pubArgs := func(seed, off int) []string {
		a := []string{"-dataset", "planted", "-seed", strconv.Itoa(seed),
			"-objects", strconv.Itoa(objects), "-ticks", strconv.Itoa(ticks),
			"-publish", addr}
		if off > 0 {
			a = append(a, "-id-offset", strconv.Itoa(off))
		}
		return a
	}
	pubA := exec.Command(datagenBin, pubArgs(1, 0)...)
	pubB := exec.Command(datagenBin, pubArgs(2, offsetB)...)
	for _, p := range []*exec.Cmd{pubA, pubB} {
		p.Stdout, p.Stderr = nil, nil
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []*exec.Cmd{pubA, pubB} {
		if err := reap(p, 60*time.Second); err != nil {
			t.Fatalf("publisher: %v", err)
		}
	}
	// A publisher's exit does not mean the server consumed its stream —
	// the tail (or a whole small fleet) can still sit in kernel socket
	// buffers, and a SIGTERM racing the read loops would truncate it.
	// Give the server time to drain before stopping the source.
	time.Sleep(3 * time.Second)

	// Both streams delivered: drain gracefully and collect the output.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := reap(srv, 60*time.Second); err != nil {
		t.Fatalf("icpe drain: %v", err)
	}
	got := patternLines(stdout.String())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("two-publisher partitioned output differs: %d patterns, oracle %d",
			len(got), len(want))
	}
}
