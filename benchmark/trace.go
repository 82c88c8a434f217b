package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one tick share Tick; Parent is the index of the
// span that caused this one (-1 for a tick's root).
type span struct {
	Name    string `json:"name"`
	Tick    int64  `json:"tick"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, tick int64, parent int) int {
	tr.spans = append(tr.spans, span{
		Name: name, Tick: tick, Parent: parent,
		StartNs: time.Since(tr.t0).Nanoseconds(),
	})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) time.Duration {
	s := &tr.spans[id]
	s.EndNs = time.Since(tr.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// rootCoverage is the share of the root spans' total time that their
// children account for; the trace is trusted when it is within 2% of 1.
func rootCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var total, own int64
	for i, s := range spans {
		if s.Parent < 0 {
			total += s.EndNs - s.StartNs
			own += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(own)/float64(total)
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Counts   map[string]float64 `json:"counts_per_tick"`
	SelfNs   map[string]int64   `json:"self_ns_by_name"`
	Coverage float64            `json:"root_coverage"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	self := selfTimes(tf.Spans)
	tf.SelfNs = make(map[string]int64)
	for i, s := range tf.Spans {
		tf.SelfNs[s.Name] += self[i]
	}
	tf.Coverage = rootCoverage(tf.Spans)
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
