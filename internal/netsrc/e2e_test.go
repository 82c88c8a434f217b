package netsrc_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/enum"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/netsrc"
	"repro/internal/ref"
	"repro/internal/trajio"
)

// End-to-end network ingest: concurrent publishers stream TRJ1 frames to a
// netsrc server whose handler feeds the full detector pipeline, which
// assembles snapshots in its source stage (last-time protocol). The
// planted groups must be recovered at the far end, and no snapshot may be
// lost on the way.
func TestNetworkIngestToPatterns(t *testing.T) {
	const ticks = 120
	gen := datagen.DefaultPlanted(4242)
	gen.NumGroups = 3
	gen.GroupSize = 5
	gen.NumNoise = 20
	sim := datagen.NewPlanted(gen)
	snaps := datagen.Snapshots(sim, ticks)

	cfg := core.Config{
		Constraints: model.Constraints{M: 4, K: 6, L: 3, G: 3},
		Eps:         gen.Eps,
		CellWidth:   gen.Eps * 4,
		Metric:      geo.L1,
		MinPts:      4,
		Enum:        core.FBA,
		Parallelism: 3,
		// Collect pattern object sets; witnesses depend on assembly order
		// only through cluster indices, so assert on recovered groups.
		CollectPatterns: true,
	}
	pipe, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()

	// The ingest path is cmd/icpe serveRecords()'s: netsrc.RecordHandler
	// feeding the pipeline's source stage; the test additionally counts
	// records as they pass.
	var received atomic.Int64
	handler := netsrc.RecordHandler(pipe.PushRecord)
	srv, err := netsrc.Serve("127.0.0.1:0", func(r trajio.Rec) {
		received.Add(1)
		handler(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})

	// Three publishers, each owning a disjoint object slice, advance in
	// tick lockstep paced on server-side progress — like rate-paced sensor
	// gateways, the next tick is not emitted until the current one has been
	// ingested. (Without pacing, one connection's read loop can sprint
	// through its whole buffered stream before the others start, and the
	// source would rightly release snapshots without the laggards.)
	const nPubs = 3
	pubs := make([]*netsrc.Publisher, nPubs)
	for i := range pubs {
		if pubs[i], err = netsrc.Dial(srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range snaps {
		var wg sync.WaitGroup
		for p := 0; p < nPubs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i, id := range s.Objects {
					if int(id)%nPubs != p {
						continue
					}
					if err := pubs[p].Publish(trajio.Rec{
						Object: id, Tick: s.Tick, Loc: s.Locs[i],
					}); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
				}
				if err := pubs[p].Flush(); err != nil {
					t.Errorf("flush: %v", err)
				}
			}(p)
		}
		wg.Wait()
		sent += s.Len()
		for received.Load() < int64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("tick %d: received %d of %d records before deadline",
					s.Tick, received.Load(), sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, p := range pubs {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	res := pipe.Finish()
	if res.Metrics.Snapshots != int64(ticks) {
		t.Errorf("pipeline consumed %d snapshots, want %d", res.Metrics.Snapshots, ticks)
	}
	found := enum.ObjectSets(res.Patterns)
	for g := 0; g < gen.NumGroups; g++ {
		members := sim.GroupMembers(g)
		key := model.Pattern{Objects: members}.Key()
		if !found[key] {
			t.Errorf("planted group %d (%v) not detected over the network path; %d patterns",
				g, members, len(res.Patterns))
		}
	}
}

// sortedPatternsCSV canonicalizes patterns for byte comparison.
func sortedPatternsCSV(t *testing.T, ps []model.Pattern) []byte {
	t.Helper()
	enum.SortPatterns(ps)
	var buf bytes.Buffer
	if err := trajio.WritePatternsCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Multi-feed ingestion into the partitioned source layer: two publishers,
// each owning a disjoint object slice, stream TRJ1 frames over real TCP
// sockets into one job whose source stage runs two partitions. The handler
// is the stateless RecordHandler, and the sorted pattern output must be
// byte-identical to the sequential reference.
func TestMultiPublisherPartitionedSource(t *testing.T) {
	const ticks = 120
	makeWorkload := func() (*datagen.Planted, []*model.Snapshot, core.Config) {
		gen := datagen.DefaultPlanted(4242)
		gen.NumGroups = 3
		gen.GroupSize = 5
		gen.NumNoise = 20
		sim := datagen.NewPlanted(gen)
		snaps := datagen.Snapshots(sim, ticks)
		return sim, snaps, core.Config{
			Constraints:     model.Constraints{M: 4, K: 6, L: 3, G: 3},
			Eps:             gen.Eps,
			CellWidth:       gen.Eps * 4,
			Metric:          geo.L1,
			MinPts:          4,
			Enum:            core.FBA,
			Parallelism:     3,
			CollectPatterns: true,
		}
	}

	// Oracle: the same stream through the sequential reference.
	_, snaps, cfg := makeWorkload()
	refPats := ref.Patterns(snaps, cfg.Constraints, cfg.Eps, cfg.CellWidth, cfg.Metric, cfg.MinPts, enum.NewFBA)
	if len(refPats) == 0 {
		t.Fatal("oracle found no patterns; weak test")
	}
	want := sortedPatternsCSV(t, refPats)

	_, snaps2, cfg2 := makeWorkload()
	cfg2.SourcePartitions = 2
	pipe, err := core.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()

	var received atomic.Int64
	handler := netsrc.RecordHandler(pipe.PushRecord)
	srv, err := netsrc.Serve("127.0.0.1:0", func(r trajio.Rec) {
		received.Add(1)
		handler(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})

	// Two publisher feeds in tick lockstep (rate-paced gateways); the
	// publisher split (object id parity) is deliberately different from the
	// source sharding (key groups), so both partitions receive records from
	// both connections.
	const nPubs = 2
	pubs := make([]*netsrc.Publisher, nPubs)
	for i := range pubs {
		if pubs[i], err = netsrc.Dial(srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range snaps2 {
		var wg sync.WaitGroup
		for p := 0; p < nPubs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i, id := range s.Objects {
					if int(id)%nPubs != p {
						continue
					}
					if err := pubs[p].Publish(trajio.Rec{
						Object: id, Tick: s.Tick, Loc: s.Locs[i],
					}); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
				}
				if err := pubs[p].Flush(); err != nil {
					t.Errorf("flush: %v", err)
				}
			}(p)
		}
		wg.Wait()
		sent += s.Len()
		for received.Load() < int64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("tick %d: received %d of %d records before deadline",
					s.Tick, received.Load(), sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, p := range pubs {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	res := pipe.Finish()
	if res.Metrics.Snapshots != int64(ticks) {
		t.Errorf("assembled %d snapshots, want %d", res.Metrics.Snapshots, ticks)
	}
	if got := sortedPatternsCSV(t, res.Patterns); !bytes.Equal(got, want) {
		t.Errorf("multi-publisher partitioned output differs: %d patterns, want %d",
			len(res.Patterns), len(refPats))
	}
}
