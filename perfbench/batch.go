package main

import (
	"fmt"
	"math"
	"time"

	"pptd"
)

// Batch workload size: the paper's Algorithm 2 offline, on a synthetic
// campaign of batchUsers users each observing all batchObjects objects.
const (
	batchUsers   = 400
	batchObjects = 50
	batchLambda2 = 2.0
)

// batchBench runs Pipeline.Run once per truth-discovery method on a
// fresh synthetic dataset per job.
type batchBench struct {
	o       options
	tr      *tracer
	mech    *pptd.Mechanism
	methods []string
	pipes   []*pptd.Pipeline
	ds      *pptd.SyntheticInstance // the next job's dataset
	jobs    uint64                  // jobs started, for per-job seeds

	attempted, failed int64
	finite            bool
	firstErr          string
}

// batchPhase is what one measured stretch observed.
type batchPhase struct {
	runs, jobs   latencies // one Pipeline.Run; one job (every method)
	users        float64   // users carried through Pipeline.Run
	runSeconds   float64
	maeSum       float64
	maeN         int
	generateMs   []float64
	perturbMs    []float64 // direct PerturbDataset calls (traced phase)
	methodMs     map[string][]float64
	iterations   []float64
	unaccounted  []float64
	elapsed      time.Duration
	proc0, proc1 procCounters
	cells        float64
	peakLiveMB   float64
	retainedMB   float64
}

func (b *batchBench) generate(job uint64) (*pptd.SyntheticInstance, time.Duration, error) {
	cfg := pptd.DefaultSyntheticConfig()
	cfg.NumUsers, cfg.NumObjects = batchUsers, batchObjects
	start := time.Now()
	inst, err := pptd.GenerateSynthetic(cfg, pptd.NewRNG(b.o.seed*1000003+job))
	return inst, time.Since(start), err
}

// setUp builds the mechanism, the three pipelines and the first job's
// dataset; it is repeated setupRepeats times and timed.
func (b *batchBench) setUp() ([]time.Duration, error) {
	var times []time.Duration
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		mech, err := pptd.NewMechanism(batchLambda2)
		if err != nil {
			return nil, err
		}
		crh, err := pptd.NewCRH()
		if err != nil {
			return nil, err
		}
		gtm, err := pptd.NewGTM()
		if err != nil {
			return nil, err
		}
		catd, err := pptd.NewCATD()
		if err != nil {
			return nil, err
		}
		b.mech, b.methods, b.pipes = mech, []string{"crh", "gtm", "catd"}, nil
		for _, m := range []pptd.Method{crh, gtm, catd} {
			p, err := pptd.NewPipeline(mech, m)
			if err != nil {
				return nil, err
			}
			b.pipes = append(b.pipes, p)
		}
		if b.ds, _, err = b.generate(0); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start))
	}
	b.jobs = 1
	return times, nil
}

// phase runs jobs until seconds have passed. In the traced phase each job
// also times one direct PerturbDataset call on its dataset, outside the
// Pipeline.Run timings.
func (b *batchBench) phase(traced bool) (*batchPhase, error) {
	ph := &batchPhase{methodMs: map[string][]float64{}}
	heap := startHeapSampler(5 * time.Millisecond)
	ph.proc0 = readProc()
	start := time.Now()
	for time.Since(start) < time.Duration(b.o.seconds)*time.Second || ph.maeN == 0 {
		ds := b.ds.Dataset
		var perturbMs float64
		if traced {
			t0 := time.Now()
			if _, _, err := b.mech.PerturbDataset(ds, pptd.NewRNG(b.o.seed+b.jobs)); err != nil {
				return nil, err
			}
			end := time.Now()
			perturbMs = msSince(t0, end)
			ph.perturbMs = append(ph.perturbMs, perturbMs)
			b.tr.record(span{ID: b.tr.ids.Add(1), Name: "core.perturb", Start: b.tr.at(t0), End: b.tr.at(end)})
		}
		cells := float64(ds.NumObservations())
		var jobMs float64
		jobOK := true
		for i, p := range b.pipes {
			b.attempted++
			t0 := time.Now()
			out, err := p.Run(ds, pptd.NewRNG(b.o.seed*7919+b.jobs*3+uint64(i)))
			end := time.Now()
			ms := msSince(t0, end)
			if traced {
				b.tr.record(span{ID: b.tr.ids.Add(1), Name: "pipeline.run", Op: b.methods[i], Start: b.tr.at(t0), End: b.tr.at(end)})
			}
			if err != nil {
				b.failed++
				if b.firstErr == "" {
					b.firstErr = err.Error()
				}
				ph.runs.fail()
				jobOK = false
				continue
			}
			ph.runs.add(ms)
			jobMs += ms
			ph.users += float64(ds.NumUsers())
			ph.runSeconds += ms / 1e3
			ph.cells = cells
			if !finiteAll(out.Private.Truths) || !finiteAll(out.Original.Truths) || math.IsNaN(out.UtilityMAE) || math.IsInf(out.UtilityMAE, 0) {
				b.finite = false
			}
			ph.maeSum += out.UtilityMAE
			ph.maeN++
			tdMs := float64(out.OriginalDuration+out.PrivateDuration) / 1e6
			ph.methodMs[b.methods[i]] = append(ph.methodMs[b.methods[i]], tdMs/2)
			ph.iterations = append(ph.iterations, float64(out.Original.Iterations+out.Private.Iterations)/2)
			if traced {
				ph.unaccounted = append(ph.unaccounted, ms-tdMs-perturbMs)
			}
		}
		if jobOK {
			ph.jobs.add(jobMs)
		} else {
			ph.jobs.fail()
		}
		next, genTime, err := b.generate(b.jobs)
		if err != nil {
			return nil, err
		}
		b.ds = next
		b.jobs++
		ph.generateMs = append(ph.generateMs, float64(genTime)/1e6)
	}
	ph.elapsed = time.Since(start)
	ph.proc1 = readProc()
	ph.peakLiveMB = heap.finish()
	ph.retainedMB = retainedHeapMB()
	return ph, nil
}

func finiteAll(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func runBatch(o options) (*report, error) {
	b := &batchBench{o: o, tr: newTracer(), finite: true}
	setups, err := b.setUp()
	if err != nil {
		return nil, err
	}
	plain, err := b.phase(false)
	if err != nil {
		return nil, err
	}
	runs := summarize(plain.runs.values())
	jobs := summarize(plain.jobs.values())
	rep := &report{}
	rep.e2e = map[string]float64{
		"setup_s":          medianSeconds(setups),
		"submits_per_s":    ratio(plain.users, plain.runSeconds),
		"submit_p50_ms":    runs.p50,
		"submit_p99_ms":    runs.p99,
		"result_p50_ms":    jobs.p50,
		"truth_mae":        ratio(plain.maeSum, float64(plain.maeN)),
		"retained_heap_mb": plain.retainedMB,
	}
	rep.addLine("workload batch seed %d: %d users x %d objects, Pipeline.Run per method (crh, gtm, catd), %v measured",
		o.seed, batchUsers, batchObjects, plain.elapsed.Round(time.Millisecond))
	rep.addLine("setup: %v (median of %d)", setups, len(setups))
	rep.addLine("%s", fmtSamples("Pipeline.Run", runs))
	rep.addLine("%s", fmtSamples("job", jobs))
	if b.firstErr != "" {
		rep.addLine("first failure: %s", b.firstErr)
	}
	rep.checks = append(rep.checks, runs.checkBelowMax("Pipeline.Run"), jobs.checkBelowMax("job"),
		check{name: "truths and UtilityMAE finite", ok: b.finite, detail: fmt.Sprintf("%d runs", plain.maeN)},
		check{name: "UtilityMAE below bound", ok: rep.e2e["truth_mae"] < maeBound,
			detail: fmt.Sprintf("mean %.4g (bound %v)", rep.e2e["truth_mae"], maeBound)})
	if o.trace {
		traced, err := b.phase(true)
		if err != nil {
			return nil, err
		}
		if err := b.tr.writeJSONL(spanPath(o)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.layers = b.layers(plain, traced)
	}
	rep.attempted, rep.failed = b.attempted, b.failed
	return rep, nil
}

// layers derives the per-layer metrics of the batch workload; every
// streaming layer reads 0 here, since batch bypasses them.
func (b *batchBench) layers(plain, traced *batchPhase) map[string]float64 {
	L := map[string]float64{}
	L["core.perturb_ms"] = mean(traced.perturbMs)
	L["core.perturb_ns_per_cell"] = ratio(mean(traced.perturbMs)*1e6, traced.cells)
	for _, m := range b.methods {
		L["truth."+m+"_ms"] = mean(traced.methodMs[m])
	}
	L["truth.iterations"] = mean(traced.iterations)
	L["synthetic.generate_ms"] = mean(traced.generateMs)
	for k, v := range runtimeLayer(plain.proc0, plain.proc1, int64(len(plain.runs.values()))) {
		L[k] = v
	}
	L["runtime.peak_live_heap_mb"] = plain.peakLiveMB
	plainMean := summarize(plain.runs.values()).mean
	tracedMean := summarize(traced.runs.values()).mean
	L["trace.overhead_share"] = ratio(tracedMean, plainMean) - 1
	L["trace.unaccounted_ms"] = mean(traced.unaccounted)
	L["trace.unaccounted_share"] = ratio(mean(traced.unaccounted), tracedMean)
	return L
}
