package main

import (
	"fmt"
	"runtime/metrics"
	"time"
)

// seqResult is what the sequential replay yields: the reference output,
// the per-layer single-threaded costs and the counts at each boundary.
type seqResult struct {
	Patterns []pattern
	Records  int64
	Ticks    int
	// NsByLayer sums each layer's spans over the replay.
	NsByLayer map[string]int64
	// Totals of the counts taken at the layer boundaries.
	Cells, Replicas, Pairs, Clusters, Partitions, PatternCount int64
	CodecBytes, CodecAllocs                                    int64
	Spans                                                      []span
}

const exchangeBatch = 32 // core's default ExchangeBatch

// batches packs items into flow.Batch messages of the default exchange
// batch size, as a keyed exchange seals them.
func batches(items []any) []flowMessage {
	var out []flowMessage
	for len(items) > 0 {
		n := exchangeBatch
		if n > len(items) {
			n = len(items)
		}
		out = append(out, flowMessage{Data: flowBatch{Items: items[:n:n]}})
		items = items[n:]
	}
	return out
}

func heapAllocObjects(sample []metrics.Sample) int64 {
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

// sequentialReplay runs the first ticks of the stream through the layers'
// public functions, one call after the other on this goroutine: the
// single-threaded baseline of the same job and the reference output. Each
// call is wrapped in a span whose parent is the tick's root span. After
// the four detection layers the tick's messages go once through the wire
// codec and once through an in-process exchange edge, so those two layers
// get a cost per record as well.
func sequentialReplay(w workload, s *stream, ticks int) (seqResult, error) {
	res := seqResult{Ticks: ticks, NsByLayer: make(map[string]int64)}
	tr := newTracer()
	n := s.objects()
	driver := newEnumDriver(cons, newFBA)
	var tickPatterns []pattern
	emit := func(p pattern) { tickPatterns = append(tickPatterns, p) }
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	edge := channelTransport().Edge("bench", 1, 2*exchangeBatch)[0]
	defer edge.Close()
	var wire []byte

	timed := func(name string, t int64, root int, fn func()) {
		id := tr.begin(name, t, root)
		fn()
		res.NsByLayer[name] += int64(tr.end(id))
	}

	for t := 1; t <= ticks; t++ {
		locs := s.at(t)
		tk := int64(t)
		root := tr.begin("tick", tk, -1)

		var tasks []cellTask
		timed("seq.allocate", tk, root, func() {
			tasks = allocateObjects(s.ids, locs, w.CellWidth, eps, gridUpperHalf)
		})

		var pairs [][2]int32
		cellEnd := make([]int, len(tasks)) // pairs[:cellEnd[i]] come from cells 0..i
		timed("seq.rangejoin", tk, root, func() {
			add := func(i, j int32) { pairs = append(pairs, [2]int32{i, j}) }
			for i, task := range tasks {
				runCellRJC(task, eps, metricL1, add)
				cellEnd[i] = len(pairs)
			}
		})

		var cs *clusterSnapshot
		timed("seq.cluster", tk, root, func() {
			// Cell tasks name objects by id; ids are 1..n in stream order,
			// so id-1 is the position dbscan wants.
			byPos := make([][2]int32, len(pairs))
			for i, p := range pairs {
				byPos[i] = [2]int32{p[0] - 1, p[1] - 1}
			}
			snap := &snapshot{Tick: tick(t), Objects: s.ids, Locs: locs}
			cs = toClusterSnapshot(snap, clustersFromPairs(n, byPos, minPts))
		})

		tickPatterns = tickPatterns[:0]
		timed("seq.enum", tk, root, func() { driver.Process(cs, emit) })
		if t == ticks {
			timed("seq.enum", tk, root, func() { driver.Flush(emit) })
		}

		// The messages this tick puts on the pipeline's edges.
		var msgs []flowMessage
		var replicas int64
		var parts []partition
		timed("bench.pack", tk, root, func() {
			res.Patterns = append(res.Patterns, tickPatterns...)
			now := time.Now()
			items := make([]any, n)
			for i := range items {
				items[i] = msgRec{Object: s.ids[i], Loc: locs[i], Tick: tick(t), Ingest: now}
			}
			msgs = append(msgs, batches(items)...)
			items = make([]any, len(tasks))
			for i, task := range tasks {
				items[i] = msgCell{Tick: tick(t), Task: task}
				replicas += int64(len(task.Data) + len(task.Queries))
			}
			msgs = append(msgs, batches(items)...)
			items = items[:0]
			from := 0
			for _, end := range cellEnd {
				if end > from {
					items = append(items, msgPairs{Tick: tick(t), Pairs: pairs[from:end]})
				}
				from = end
			}
			msgs = append(msgs, batches(items)...)
			parts = partitionClusters(cs, cons.M)
			items = make([]any, len(parts))
			for i, p := range parts {
				items[i] = p
			}
			msgs = append(msgs, batches(items)...)
			items = make([]any, len(tickPatterns))
			for i, p := range tickPatterns {
				items[i] = p
			}
			msgs = append(msgs, batches(items)...)
		})

		var codecErr error
		before := heapAllocObjects(allocs)
		timed("seq.codec", tk, root, func() {
			for _, m := range msgs {
				var err error
				if wire, err = appendMessageWire(wire[:0], m, true); err != nil {
					codecErr = err
					return
				}
				res.CodecBytes += int64(len(wire))
				if _, err = decodeMessage(wire); err != nil {
					codecErr = err
					return
				}
			}
		})
		res.CodecAllocs += heapAllocObjects(allocs) - before
		if codecErr != nil {
			return res, fmt.Errorf("tick %d: codec: %w", t, codecErr)
		}

		timed("seq.exchange", tk, root, func() {
			done := make(chan int)
			go func() {
				got := 0
				for got < len(msgs) {
					if _, ok := edge.Recv(); !ok {
						break
					}
					got++
				}
				done <- got
			}()
			for _, m := range msgs {
				edge.Send(m)
			}
			<-done
		})
		tr.end(root)

		res.Records += int64(n)
		res.Cells += int64(len(tasks))
		res.Replicas += replicas
		res.Pairs += int64(len(pairs))
		res.Clusters += int64(len(cs.Clusters))
		res.Partitions += int64(len(parts))
		res.PatternCount += int64(len(tickPatterns))
	}
	res.Spans = tr.spans
	return res, nil
}

// nsPerRecord is a layer's summed span time per stream record.
func (r *seqResult) nsPerRecord(layer string) float64 {
	return float64(r.NsByLayer[layer]) / float64(r.Records)
}

// detectionNs is the single-threaded cost of the job itself: the four
// detection layers, without the codec and exchange passes.
func (r *seqResult) detectionNs() int64 {
	return r.NsByLayer["seq.allocate"] + r.NsByLayer["seq.rangejoin"] +
		r.NsByLayer["seq.cluster"] + r.NsByLayer["seq.enum"]
}
