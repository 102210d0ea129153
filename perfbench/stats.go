package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// latencies collects one operation's latencies in milliseconds. Every
// percentile is computed from these recorded samples, never from
// histogram buckets. A failed operation is recorded as +Inf: it missed
// every latency limit, so a change cannot look faster by failing.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(ms float64) {
	l.mu.Lock()
	l.ms = append(l.ms, ms)
	l.mu.Unlock()
}

func (l *latencies) fail() { l.add(math.Inf(1)) }

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// summary describes a sample: its size, nearest-rank percentiles, the
// observed maximum and the mean of the finite values.
type summary struct {
	n             int
	p50, p99, max float64
	mean          float64
}

func summarize(ms []float64) summary {
	s := summary{n: len(ms)}
	if s.n == 0 {
		return s
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s.p50 = quantile(sorted, 0.50)
	s.p99 = quantile(sorted, 0.99)
	s.max = sorted[s.n-1]
	var sum float64
	var finite int
	for _, v := range sorted {
		if !math.IsInf(v, 0) {
			sum += v
			finite++
		}
	}
	if finite > 0 {
		s.mean = sum / float64(finite)
	}
	return s
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkBelowMax is the output check that no reported percentile exceeds
// the observed maximum of its sample.
func (s summary) checkBelowMax(name string) check {
	ok := s.p50 <= s.max && s.p99 <= s.max
	return check{name: name + " percentiles <= max", ok: ok,
		detail: fmt.Sprintf("n=%d p50=%.4g p99=%.4g max=%.4g", s.n, s.p50, s.p99, s.max)}
}

// median is the middle value of vs (the mean of the two middle values
// for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check is one output check; a failing check fails the run.
type check struct {
	name   string
	ok     bool
	detail string
}

// closeEnough compares two derived floating-point quantities.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
