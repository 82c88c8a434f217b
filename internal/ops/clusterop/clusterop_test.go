package clusterop

import (
	"testing"

	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

// runOp drives one clusterop instance through a single-stage pipeline so
// emissions and watermarks flow exactly as in production.
func runOp(t *testing.T, op *Op, feed func(p *flow.Pipeline)) []any {
	t.Helper()
	var got []any
	p := flow.NewPipeline(flow.Config{Sink: func(d any) { got = append(got, d) }},
		flow.StageSpec{Name: "cluster", Parallelism: 1, Make: func(int) flow.Operator {
			return op
		}})
	p.Start()
	feed(p)
	p.Drain()
	return got
}

// metaOf announces a tick's objects; pairs name objects by id.
func metaOf(tick model.Tick, ids ...model.ObjectID) msg.Meta {
	return msg.Meta{Tick: tick, Objects: ids}
}

// A tick covered by the watermark whose msg.Meta never arrived (lossy or
// reordered upstream) must be dropped, not retained forever.
func TestWatermarkDropsMetalessTicks(t *testing.T) {
	op := New(Config{MinPts: 2, GroupMin: 2, Enumerate: true})
	runOp(t, op, func(p *flow.Pipeline) {
		// Pairs for ticks 1..50 arrive, but no Meta ever does.
		for tick := model.Tick(1); tick <= 50; tick++ {
			p.Submit(uint64(tick), msg.Pairs{Tick: tick, Pairs: [][2]int32{{0, 1}}})
		}
		p.SubmitWatermark(50)
		// A later, complete tick still works.
		p.Submit(61, metaOf(61, 7, 8, 9))
		p.Submit(61, msg.Pairs{Tick: 61, Pairs: [][2]int32{{7, 8}, {7, 9}, {8, 9}}})
		p.SubmitWatermark(61)
	})
	if n := op.Buffered(); n != 0 {
		t.Errorf("%d meta-less ticks retained after covering watermark", n)
	}
}

// A complete tick must still be finalized exactly once and emit its
// partitions.
func TestCompleteTickFinalized(t *testing.T) {
	op := New(Config{MinPts: 3, GroupMin: 3, Enumerate: true})
	got := runOp(t, op, func(p *flow.Pipeline) {
		p.Submit(5, metaOf(5, 10, 11, 12))
		p.Submit(5, msg.Pairs{Tick: 5, Pairs: [][2]int32{{10, 11}, {10, 12}, {11, 12}}})
		p.SubmitWatermark(5)
	})
	if len(got) == 0 {
		t.Fatal("no partitions emitted for a complete tick")
	}
	for _, d := range got {
		part, ok := d.(enum.Partition)
		if !ok {
			t.Fatalf("emitted %T, want enum.Partition", d)
		}
		if part.Tick != 5 {
			t.Errorf("partition tick = %d, want 5", part.Tick)
		}
	}
}

// Close discards meta-less ticks instead of finalizing garbage.
func TestCloseDiscardsIncompleteTicks(t *testing.T) {
	op := New(Config{MinPts: 2, GroupMin: 2, Enumerate: true})
	got := runOp(t, op, func(p *flow.Pipeline) {
		p.Submit(9, msg.Pairs{Tick: 9, Pairs: [][2]int32{{0, 1}}})
		// Stream ends without Meta for tick 9 and without a watermark.
	})
	if len(got) != 0 {
		t.Errorf("incomplete tick emitted %d records at close", len(got))
	}
	if n := op.Buffered(); n != 0 {
		t.Errorf("%d ticks retained after Close", n)
	}
}
