package main

import (
	"math"
	"sort"
	"strconv"
)

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest value with at least q of the sample at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relDiff is |a-b| as a share of their mean.
func relDiff(a, b float64) float64 {
	m := (a + b) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// appendPatternLine renders p as trajio.WritePatternsCSV does, without the
// newline: "o1|o2|...,t1|t2|...".
func appendPatternLine(buf []byte, p pattern) []byte {
	for i, o := range p.Objects {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = strconv.AppendUint(buf, uint64(o), 10)
	}
	buf = append(buf, ',')
	for i, t := range p.Times {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = strconv.AppendInt(buf, int64(t), 10)
	}
	return buf
}

// patternDigest is an order-independent summary of a pattern stream: the
// count and the wrapping sum of the FNV-1a hashes of the canonical lines.
type patternDigest struct {
	Count int64
	Sum   uint64
	buf   []byte
}

func (d *patternDigest) add(p pattern) {
	d.buf = appendPatternLine(d.buf[:0], p)
	h := uint64(14695981039346656037)
	for _, b := range d.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	d.Count++
	d.Sum += h
}

func (d *patternDigest) equal(o *patternDigest) bool {
	return d.Count == o.Count && d.Sum == o.Sum
}
