package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pptd"
)

// heapSampler records the peak live heap: the heap the last garbage
// collection found reachable, read from runtime/metrics (no
// stop-the-world) every few milliseconds. It includes transient
// structures only when a collection ran while they were reachable.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// retainedHeapMB runs a full collection and returns the live heap in MiB:
// the memory the program keeps between operations, independent of when
// the collector last ran.
func retainedHeapMB() float64 {
	// The second collection also frees what sync.Pool victim caches held
	// through the first.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// procCounters is a reading of the process's allocation and CPU counters.
type procCounters struct {
	allocObjects, allocBytes uint64
	gcCPU, usedCPU           float64 // runtime's CPU accounting, seconds
	rusageCPU                float64 // user+system CPU from getrusage, seconds
}

func readProc() procCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure: cpu_us_per_op then reads 0
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procCounters{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		usedCPU:      s[3].Value.Float64() - s[4].Value.Float64(),
		rusageCPU:    tv(ru.Utime) + tv(ru.Stime),
	}
}

// runtimeLayer turns two readings around a phase of ops operations into
// the runtime.* layer metrics.
func runtimeLayer(a, b procCounters, ops int64) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		"runtime.allocs_per_op":      ratio(float64(b.allocObjects-a.allocObjects), n),
		"runtime.alloc_bytes_per_op": ratio(float64(b.allocBytes-a.allocBytes), n),
		"runtime.cpu_us_per_op":      ratio((b.rusageCPU-a.rusageCPU)*1e6, n),
		"runtime.gc_cpu_fraction":    ratio(b.gcCPU-a.gcCPU, b.usedCPU-a.usedCPU),
	}
}

// scrape reads a node's metrics registry in the text exposition GET
// /metrics serves and returns every sample keyed by series name (labels
// dropped; a name with several label sets keeps every value).
func scrape(reg *pptd.MetricsRegistry) map[string][]float64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil
	}
	out := map[string][]float64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] = append(out[name], v)
	}
	return out
}

// scrapeSum adds one series across label sets and registries.
func scrapeSum(scrapes []map[string][]float64, name string) float64 {
	var sum float64
	for _, s := range scrapes {
		for _, v := range s[name] {
			sum += v
		}
	}
	return sum
}

// gaugeMax polls the given registries and keeps the largest value any
// series of one gauge reached.
type gaugeMax struct {
	mu   sync.Mutex
	max  float64
	stop chan struct{}
	done chan struct{}
}

func pollGaugeMax(regs []*pptd.MetricsRegistry, name string, every time.Duration) *gaugeMax {
	g := &gaugeMax{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			for _, r := range regs {
				for _, v := range scrape(r)[name] {
					g.mu.Lock()
					g.max = max(g.max, v)
					g.mu.Unlock()
				}
			}
		}
	}()
	return g
}

func (g *gaugeMax) finish() float64 {
	close(g.stop)
	<-g.done
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}
