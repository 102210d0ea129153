package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pptd"
)

// Streaming workload sizes. Every device senses perDevice of the
// campaign's numObjects objects (each object gets hundreds of claims per
// window), so truth_mae averages over hundreds of objects.
const (
	numObjects = 1000

	// ingest and cluster: a fleet that re-submits every window, closed
	// loop over two gateway connections.
	fleetDevices   = 5000
	fleetPerDevice = 20
	gateways       = 2
	clusterWorkers = 2

	// close: a standing population preloaded in set-up, then an open-loop
	// Poisson trickle of submissions on one connection while the driver
	// closes windows on a fixed timer on the other.
	populationDevices   = 20000
	populationPerDevice = 10
	trickleRate         = 200.0 // submissions per second
	closeEvery          = 2 * time.Second
	preloadWorkers      = 16

	// maeBound is the accuracy check on published truths.
	maeBound = 0.5
)

// streamBench drives one streaming deployment.
type streamBench struct {
	o          options
	tr         *tracer
	fleet      *fleet
	dir        string
	dep        *deployment
	stateDirs  []string
	client     *pptd.Client // the gateway devices submit through
	closer     *pptd.Client // the driver's window-close client
	transports []*http.Transport
	info       pptd.StreamCampaignInfo

	subs, claims      int64 // accepted over the whole run, preload included
	attempted, failed int64 // over the whole run
	last              pptd.StreamWindowInfo
	published         int  // close results seen
	finite            bool // every published truth was finite
	firstErr          atomic.Value
}

func newStreamBench(o options, devices, perDevice int) (*streamBench, error) {
	b := &streamBench{o: o, tr: newTracer(), finite: true}
	f, err := newFleet(o.seed, devices, perDevice, numObjects)
	if err != nil {
		return nil, err
	}
	b.fleet = f
	if b.dir, err = runDir(o); err != nil {
		return nil, err
	}
	return b, nil
}

// teardown stops the deployment and removes its state.
func (b *streamBench) teardown() error {
	for _, tp := range b.transports {
		tp.CloseIdleConnections()
	}
	b.transports = nil
	var err error
	if b.dep != nil {
		err = b.dep.close()
		b.dep = nil
	}
	return err
}

func (b *streamBench) cleanup() {
	if err := b.teardown(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
	}
	_ = os.RemoveAll(b.dir)
}

// setUp boots the deployment setupRepeats times, each time in a fresh
// state directory, timing boot, first campaign fetch and preload; every
// set-up but the last is torn down again.
func (b *streamBench) setUp(boot func(dir string) (*deployment, []string, error), gatewayConns int, ownCloser bool, preload func() error) ([]time.Duration, error) {
	var times []time.Duration
	for k := 0; k < setupRepeats; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", k))
		start := time.Now()
		dep, stateDirs, err := boot(dir)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		b.dep, b.stateDirs = dep, stateDirs
		client, tp, err := newClient(dep.baseURL, gatewayConns, b.tr)
		if err != nil {
			return nil, err
		}
		b.client, b.closer, b.transports = client, client, []*http.Transport{tp}
		if ownCloser {
			closer, tp, err := newClient(dep.baseURL, 1, b.tr)
			if err != nil {
				return nil, err
			}
			b.closer, b.transports = closer, append(b.transports, tp)
		}
		if b.info, err = b.client.StreamCampaign(context.Background()); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if preload != nil {
			if err := preload(); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		times = append(times, time.Since(start))
		if k < setupRepeats-1 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

// phase is what one measured stretch observed.
type phase struct {
	submits, closes          latencies
	late                     latencies
	mu                       sync.Mutex
	subRecs                  []subRec
	closeIvs                 [][2]time.Time
	accepted, claims         atomic.Int64
	attempted, failed        atomic.Int64
	start                    time.Time
	busy, elapsed            time.Duration
	mae                      float64
	haveMAE                  bool
	proc0, proc1             procCounters
	store0, store1           storeTotals
	scrape0, scrape1         []map[string][]float64
	engine0, engine1         []int64
	quietBytes, quietAppends int64
	queue                    *gaugeMax
	queueMax                 float64
	heap                     *heapSampler
	peakLiveMB               float64
	retainedMB               float64
	slices                   []sliceStat
}

// sliceSubmits is the size of a closed-loop slice: consecutive
// submissions whose rate and percentiles are computed together. Its p99
// has ten samples beyond it.
const sliceSubmits = 1000

// sliceStat is one slice's submission figures.
type sliceStat struct {
	perSecond float64
	lat       summary
}

// addSlices cuts one fleet pass, started at start, into slices of
// sliceSubmits submissions in completion order; a short tail is left out.
func (ph *phase) addSlices(start time.Time, recs []subRec) {
	recs = append([]subRec(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].done.Before(recs[j].done) })
	prev := start
	for i := 0; i+sliceSubmits <= len(recs); i += sliceSubmits {
		chunk := recs[i : i+sliceSubmits]
		ms := make([]float64, len(chunk))
		for j, r := range chunk {
			ms[j] = r.ms
		}
		end := chunk[len(chunk)-1].done
		ph.slices = append(ph.slices, sliceStat{perSecond: sliceSubmits / end.Sub(prev).Seconds(), lat: summarize(ms)})
		prev = end
	}
}

type subRec struct {
	due, done time.Time
	ms        float64
}

func (b *streamBench) beginPhase(traced bool) *phase {
	ph := &phase{}
	b.tr.on.Store(traced)
	if traced {
		ph.queue = pollGaugeMax(b.dep.registries(), "pptd_stream_shard_queue_depth", 50*time.Millisecond)
	}
	ph.scrape0, ph.store0, ph.engine0 = b.dep.scrapes(), b.dep.storeTotals(), b.dep.engineClaims()
	ph.heap = startHeapSampler(5 * time.Millisecond)
	ph.proc0 = readProc()
	ph.start = time.Now()
	return ph
}

func (b *streamBench) endPhase(ph *phase) {
	ph.elapsed = time.Since(ph.start)
	ph.proc1 = readProc()
	ph.peakLiveMB = ph.heap.finish()
	ph.retainedMB = retainedHeapMB()
	ph.scrape1, ph.store1, ph.engine1 = b.dep.scrapes(), b.dep.storeTotals(), b.dep.engineClaims()
	if ph.queue != nil {
		ph.queueMax = ph.queue.finish()
	}
	b.tr.on.Store(false)
	b.subs += ph.accepted.Load()
	b.claims += ph.claims.Load()
	b.attempted += ph.attempted.Load()
	b.failed += ph.failed.Load()
}

func (b *streamBench) noteErr(err error) {
	b.firstErr.CompareAndSwap(nil, err.Error())
}

// submit runs one device's ParticipateStream, timed from when it was due.
func (b *streamBench) submit(ph *phase, d *device, due time.Time) {
	ctx, id := b.tr.opContext(context.Background())
	start := time.Now()
	rc, err := d.user.ParticipateStream(ctx, b.client)
	end := time.Now()
	b.tr.recordOp(id, spanSubmit, start, end)
	ph.attempted.Add(1)
	rec := subRec{due: due, done: end, ms: msSince(due, end)}
	if err != nil {
		b.noteErr(err)
		ph.failed.Add(1)
		rec.ms = math.Inf(1)
	} else {
		ph.accepted.Add(1)
		ph.claims.Add(int64(rc.Accepted))
		d.windows++
	}
	ph.submits.add(rec.ms)
	ph.mu.Lock()
	ph.subRecs = append(ph.subRecs, rec)
	ph.mu.Unlock()
}

// closeWindow is one driver window close on the closer connection.
func (b *streamBench) closeWindow(ph *phase) {
	ctx, id := b.tr.opContext(context.Background())
	start := time.Now()
	res, err := b.closer.StreamCloseWindow(ctx)
	end := time.Now()
	b.tr.recordOp(id, spanClose, start, end)
	ph.attempted.Add(1)
	ph.mu.Lock()
	ph.closeIvs = append(ph.closeIvs, [2]time.Time{start, end})
	ph.mu.Unlock()
	if err != nil {
		b.noteErr(err)
		ph.failed.Add(1)
		ph.closes.fail()
		return
	}
	ph.closes.add(msSince(start, end))
	b.publish(ph, res)
}

func (b *streamBench) publish(ph *phase, res pptd.StreamWindowInfo) {
	mae, ok := b.fleet.mae(res)
	if !ok {
		b.finite = false
	}
	if ph != nil && !ph.haveMAE {
		ph.mae, ph.haveMAE = mae, true
	}
	b.last = res
	b.published++
}

// pass has every device of the fleet submit once, closed loop over the
// gateway connections.
func (b *streamBench) pass(ph *phase) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.fleet.devices) {
					return
				}
				b.submit(ph, b.fleet.devices[i], time.Now())
			}
		}()
	}
	wg.Wait()
}

// window is one closed-loop window: fresh readings, a full fleet pass,
// then the driver's close.
func (b *streamBench) window(ph *phase) error {
	if err := b.fleet.resense(); err != nil {
		return err
	}
	before := b.dep.storeTotals()
	ph.mu.Lock()
	first := len(ph.subRecs)
	ph.mu.Unlock()
	start := time.Now()
	b.pass(ph)
	ph.busy += time.Since(start)
	ph.addSlices(start, ph.subRecs[first:])
	after := b.dep.storeTotals()
	if after.segmentsDeleted == before.segmentsDeleted {
		ph.quietBytes += after.journalBytes - before.journalBytes
		ph.quietAppends += after.appends - before.appends
	}
	b.closeWindow(ph)
	return nil
}

// closedLoop runs whole windows until the phase has lasted seconds.
func (b *streamBench) closedLoop(traced bool) (*phase, error) {
	ph := b.beginPhase(traced)
	for {
		if err := b.window(ph); err != nil {
			return nil, err
		}
		if time.Since(ph.start) >= time.Duration(b.o.seconds)*time.Second {
			break
		}
	}
	b.endPhase(ph)
	return ph, nil
}

func runIngest(o options) (*report, error) { return runClosedLoop(o, false) }

func runCluster(o options) (*report, error) { return runClosedLoop(o, true) }

// runClosedLoop is the ingest workload (one durable node) or, with
// cluster, the same fleet through a coordinator in front of durable
// workers.
func runClosedLoop(o options, cluster bool) (*report, error) {
	b, err := newStreamBench(o, fleetDevices, fleetPerDevice)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	boot := func(dir string) (*deployment, []string, error) {
		if !cluster {
			dep, err := startSingle(dir, numObjects, b.tr)
			return dep, []string{dir}, err
		}
		dep, err := startCluster(dir, numObjects, clusterWorkers, b.tr)
		var dirs []string
		for i := 0; i < clusterWorkers; i++ {
			dirs = append(dirs, filepath.Join(dir, fmt.Sprintf("worker-%d", i)))
		}
		return dep, dirs, err
	}
	setups, err := b.setUp(boot, gateways, false, nil)
	if err != nil {
		return nil, err
	}
	// Warm-up window: every device is admitted and both connections are
	// open before anything is measured.
	warm := b.beginPhase(false)
	if err := b.window(warm); err != nil {
		return nil, err
	}
	b.endPhase(warm)
	phases, err := b.phases(b.closedLoop)
	if err != nil {
		return nil, err
	}
	return b.report(setups, phases), nil
}

// phases runs the untraced phase and, in a traced run, a traced one after
// it, so the two can be compared for the tracing overhead.
func (b *streamBench) phases(run func(traced bool) (*phase, error)) ([]*phase, error) {
	ph, err := run(false)
	if err != nil {
		return nil, err
	}
	out := []*phase{ph}
	if b.o.trace {
		tp, err := run(true)
		if err != nil {
			return nil, err
		}
		out = append(out, tp)
		if err := b.tr.writeJSONL(spanPath(b.o)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

func runClose(o options) (*report, error) {
	b, err := newStreamBench(o, populationDevices, populationPerDevice)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	// Devices perturb their preload readings on-device, as Algorithm 2
	// prescribes; the program only ever receives the perturbed claims.
	mech, err := pptd.NewMechanism(lambda2)
	if err != nil {
		return nil, err
	}
	preloadClaims := make([][]pptd.StreamClaim, len(b.fleet.devices))
	for i, d := range b.fleet.devices {
		p := mech.NewUserPerturber(d.rng)
		for _, r := range b.fleet.readings(d) {
			preloadClaims[i] = append(preloadClaims[i], pptd.StreamClaim{Object: r.Object, Value: p.Perturb(r.Value)})
		}
	}
	preload := func() error {
		if err := b.preload(preloadClaims); err != nil {
			return err
		}
		res, err := b.closer.StreamCloseWindow(context.Background())
		if err != nil {
			return fmt.Errorf("close preload window: %w", err)
		}
		b.publish(nil, res)
		return nil
	}
	setups, err := b.setUp(func(dir string) (*deployment, []string, error) {
		dep, err := startSingle(dir, numObjects, b.tr)
		return dep, []string{dir}, err
	}, 1, true, preload)
	if err != nil {
		return nil, err
	}
	order := pptd.NewRNG(o.seed ^ 0x5eed).Perm(len(b.fleet.devices))
	var phaseNo uint64
	phases, err := b.phases(func(traced bool) (*phase, error) {
		phaseNo++
		return b.openLoop(traced, pptd.NewRNG(o.seed*1000003+phaseNo), &order)
	})
	if err != nil {
		return nil, err
	}
	// Close the trickle's last window so every accepted claim is in a
	// published result before the checks.
	tail := b.beginPhase(false)
	b.closeWindow(tail)
	b.endPhase(tail)
	return b.report(setups, phases), nil
}

// preload ingests one perturbed submission per device straight into the
// node's engine, concurrently, so group commit batches the journal
// appends; it charges each device's budget for window 1.
func (b *streamBench) preload(claims [][]pptd.StreamClaim) error {
	eng := b.dep.front.Stream().Engine()
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	var subs, n atomic.Int64
	for g := 0; g < preloadWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(claims) {
					return
				}
				d := b.fleet.devices[i]
				accepted, _, err := eng.Ingest(d.user.ID(), claims[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				d.windows = 1
				subs.Add(1)
				n.Add(int64(accepted))
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	b.subs, b.claims = subs.Load(), n.Load()
	return nil
}

// openLoop is one phase of the close workload: a seeded Poisson schedule
// of device submissions on the gateway connection, each timed from when
// it was due, and a window close every closeEvery on the driver's
// connection. No device submits twice in a run.
func (b *streamBench) openLoop(traced bool, rng *pptd.RNG, order *[]int) (*phase, error) {
	seconds := time.Duration(b.o.seconds) * time.Second
	var offsets []time.Duration
	for t := 0.0; ; {
		t += rng.Exp() / trickleRate
		off := time.Duration(t * float64(time.Second))
		if off >= seconds {
			break
		}
		offsets = append(offsets, off)
	}
	if len(offsets) > len(*order) {
		return nil, fmt.Errorf("schedule of %d submissions exceeds the %d devices left", len(offsets), len(*order))
	}
	ph := b.beginPhase(traced)
	t0 := time.Now().Add(10 * time.Millisecond)
	var closes sync.WaitGroup
	closes.Add(1)
	go func() {
		defer closes.Done()
		for k := 1; time.Duration(k)*closeEvery < seconds; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * closeEvery)))
			b.closeWindow(ph)
		}
	}()
	var subs sync.WaitGroup
	for i, off := range offsets {
		due := t0.Add(off)
		time.Sleep(time.Until(due))
		ph.late.add(msSince(due, time.Now()))
		d := b.fleet.devices[(*order)[i]]
		subs.Add(1)
		go func(d *device, due time.Time) {
			defer subs.Done()
			b.submit(ph, d, due)
		}(d, due)
	}
	subs.Wait()
	closes.Wait()
	*order = (*order)[len(offsets):]
	ph.busy = seconds
	b.endPhase(ph)
	return ph, nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

// stallSplit separates submissions whose [due, done] overlaps a window
// close from the rest.
func (ph *phase) stallSplit() (stall, free []float64) {
	for _, s := range ph.subRecs {
		overlaps := false
		for _, iv := range ph.closeIvs {
			if s.due.Before(iv[1]) && s.done.After(iv[0]) {
				overlaps = true
				break
			}
		}
		if overlaps {
			stall = append(stall, s.ms)
		} else {
			free = append(free, s.ms)
		}
	}
	return stall, free
}

// report turns the phases into metrics and runs the output checks.
func (b *streamBench) report(setups []time.Duration, phases []*phase) *report {
	ph := phases[0]
	rep := &report{attempted: b.attempted, failed: b.failed}
	subs := summarize(ph.submits.values())
	closes := summarize(ph.closes.values())
	rep.e2e = map[string]float64{
		"setup_s":          medianSeconds(setups),
		"submits_per_s":    ratio(float64(ph.accepted.Load()), ph.busy.Seconds()),
		"submit_p50_ms":    subs.p50,
		"submit_p99_ms":    subs.p99,
		"result_p50_ms":    closes.p50,
		"truth_mae":        ph.mae,
		"retained_heap_mb": ph.retainedMB,
	}
	rep.addLine("workload %s seed %d: %d devices x %d of %d objects, %s, %v measured",
		b.o.workload, b.o.seed, len(b.fleet.devices), len(b.fleet.devices[0].objects), numObjects,
		b.dep.frontLayer(), ph.elapsed.Round(time.Millisecond))
	rep.addLine("setup: %v (median of %d)", setups, len(setups))
	if len(ph.slices) > 0 {
		// Closed loop: each submission figure is the median over slices of
		// that slice's figure, so a few disturbed seconds do not move it.
		var rates, p50s, p99s []float64
		for _, s := range ph.slices {
			rates, p50s, p99s = append(rates, s.perSecond), append(p50s, s.lat.p50), append(p99s, s.lat.p99)
			if c := s.lat.checkBelowMax("slice submit"); !c.ok {
				rep.checks = append(rep.checks, c)
			}
		}
		rep.e2e["submits_per_s"], rep.e2e["submit_p50_ms"], rep.e2e["submit_p99_ms"] = median(rates), median(p50s), median(p99s)
		rep.addLine("%d slices of %d submissions: submits/s min %.0f median %.0f max %.0f; p50 median %.4gms; p99 min %.4gms median %.4gms max %.4gms",
			len(ph.slices), sliceSubmits, minOf(rates), median(rates), maxOf(rates), median(p50s), minOf(p99s), median(p99s), maxOf(p99s))
		rep.addLine("slice submits/s in order: %.0f", rates)
	}
	rep.addLine("%s", fmtSamples("submit", subs))
	rep.addLine("%s", fmtSamples("close", closes))
	if late := summarize(ph.late.values()); late.n > 0 {
		rep.addLine("%s", fmtSamples("loadgen lateness", late))
	}
	if e, ok := b.firstErr.Load().(string); ok {
		rep.addLine("first failure: %s", e)
	}
	rep.checks = append(rep.checks, subs.checkBelowMax("submit"), closes.checkBelowMax("close"))
	rep.checks = append(rep.checks, b.checks()...)
	if b.o.trace {
		rep.layers = b.layers(phases[0], phases[1])
		rep.addLine("trace: %d spans written to %s (%d dropped)", len(b.tr.snapshot()), spanPath(b.o), b.tr.dropped)
	}
	return rep
}

// checks verifies the program's outputs against what the driver saw.
func (b *streamBench) checks() []check {
	var cs []check
	cs = append(cs, check{name: "accepted claims == server TotalClaims",
		ok: b.published > 0 && b.claims == b.last.TotalClaims, detail: fmt.Sprintf("client %d, server %d", b.claims, b.last.TotalClaims)})
	st := b.dep.storeTotals()
	cs = append(cs, check{name: "journal appends == accepted submissions",
		ok: st.appends == b.subs, detail: fmt.Sprintf("journal %d, accepted %d", st.appends, b.subs)})
	k := b.fleet.maxWindows()
	p := b.last.Privacy
	privOK := p != nil && p.MaxWindows == k &&
		closeEnough(p.MaxCumulative, float64(k)*b.info.EpsilonPerWindow) &&
		closeEnough(p.CumulativeDelta, float64(k)*b.info.Delta)
	detail := "no privacy report"
	if p != nil {
		detail = fmt.Sprintf("max windows %d (driver %d), max eps %.6g (want %.6g), delta %.6g (want %.6g)",
			p.MaxWindows, k, p.MaxCumulative, float64(k)*b.info.EpsilonPerWindow, p.CumulativeDelta, float64(k)*b.info.Delta)
	}
	cs = append(cs, check{name: "privacy report == windows participated x per-window charge", ok: privOK, detail: detail})
	if b.dep.workers != nil {
		var sum int64
		for _, c := range b.dep.engineClaims() {
			sum += c
		}
		cs = append(cs, check{name: "worker claims sum to coordinator total",
			ok: sum == b.last.TotalClaims, detail: fmt.Sprintf("workers %v, coordinator %d", b.dep.engineClaims(), b.last.TotalClaims)})
	}
	mae, ok := b.fleet.mae(b.last)
	cs = append(cs, check{name: "published truths finite and accurate",
		ok: b.finite && ok && mae < maeBound, detail: fmt.Sprintf("last window %d mae %.4g (bound %v)", b.last.Window, mae, maeBound)})
	return cs
}

// layers derives the per-layer metrics: runtime and load-generator
// figures from the untraced phase, everything else from the traced one.
func (b *streamBench) layers(plain, traced *phase) map[string]float64 {
	ix := indexSpans(b.tr.snapshot())
	front := b.dep.frontLayer()
	L := map[string]float64{}

	submits := ix.find(spanSubmit, "")
	var rts, bytes float64
	for _, s := range submits {
		for _, c := range ix.children[s.ID] {
			rts++
			bytes += float64(c.Bytes)
		}
	}
	n := float64(len(submits))
	L["crowd.round_trips_per_submit"] = ratio(rts, n)
	L["crowd.bytes_per_submit"] = ratio(bytes, n)
	L["crowd.campaign_rtt_ms"] = ix.meanMs(spanRT, opCampaign)
	L["crowd.claims_rtt_ms"] = ix.meanMs(spanRT, opClaims)
	L["crowd.claims_handler_ms"] = ix.meanMs(front, opClaims)
	L["crowd.transport_ms"] = ix.transportMs(opClaims, front)
	L["crowd.window_handler_ms"] = ix.meanMs(front, opWindow)

	delta := func(name string) float64 { return scrapeSum(traced.scrape1, name) - scrapeSum(traced.scrape0, name) }
	L["stream.close_ms"] = 1e3 * ratio(delta("pptd_stream_window_close_duration_seconds_sum"), delta("pptd_stream_window_close_duration_seconds_count"))
	L["stream.estimate_ms"] = 1e3 * ratio(delta("pptd_stream_estimate_duration_seconds_sum"), delta("pptd_stream_estimate_duration_seconds_count"))
	L["stream.estimate_iterations"] = ratio(delta("pptd_stream_estimate_iterations_sum"), delta("pptd_stream_estimate_iterations_count"))
	L["stream.tracked_users"] = scrapeSum(traced.scrape1, "pptd_stream_tracked_users")
	stall, free := traced.stallSplit()
	L["stream.stall_p99_ms"] = summarize(stall).p99
	L["stream.free_p99_ms"] = summarize(free).p99
	L["stream.queue_depth_max"] = traced.queueMax

	s0, s1 := traced.store0, traced.store1
	L["streamstore.appends_per_sync"] = ratio(float64(s1.appends-s0.appends), float64(s1.syncs-s0.syncs))
	L["streamstore.flush_ms"] = 1e3 * ratio(s1.flushSum-s0.flushSum, float64(s1.flushCount-s0.flushCount))
	L["streamstore.sync_busy_share"] = ratio(s1.flushSum-s0.flushSum, traced.elapsed.Seconds())
	L["streamstore.journal_bytes_per_submit"] = ratio(float64(traced.quietBytes), float64(traced.quietAppends))
	if b.dep.workers == nil && L["stream.close_ms"] > 0 {
		L["streamstore.persist_close_ms"] = L["crowd.window_handler_ms"] - L["stream.close_ms"]
	}
	L["streamstore.snapshot_bytes"] = snapshotBytes(b.stateDirs)

	if b.dep.workers != nil {
		L["cluster.front_handler_ms"] = ix.meanMs(spanCoord, opClaims)
		L["cluster.worker_handler_ms"] = ix.meanMs(spanWorker, opClaims)
		L["cluster.route_self_ms"] = L["cluster.front_handler_ms"] - L["cluster.worker_handler_ms"]
		var maxC, sumC float64
		for i := range traced.engine1 {
			c := float64(traced.engine1[i] - traced.engine0[i])
			maxC, sumC = max(maxC, c), sumC+c
		}
		L["cluster.shard_skew"] = ratio(maxC, sumC/float64(len(traced.engine1)))
		L["cluster.close_rpc_ms"] = ix.meanMs(spanWorker, opRPCClose)
		L["cluster.commit_rpc_ms"] = ix.meanMs(spanWorker, opCommit)
		L["cluster.merge_self_ms"] = ix.selfMs(ix.find(spanCoord, opWindow), func(p span) [][2]int64 {
			return ix.containedIntervals(p, spanWorker, opRPCClose, opCommit)
		})
	}

	for k, v := range runtimeLayer(plain.proc0, plain.proc1, int64(len(plain.submits.values()))) {
		L[k] = v
	}
	L["runtime.peak_live_heap_mb"] = plain.peakLiveMB
	L["loadgen.late_p99_ms"] = summarize(plain.late.values()).p99

	// Tracing overhead: the traced phase's mean submission latency against
	// the untraced one's. The unaccounted gap: a submission's duration
	// minus the round trips (transport plus handler) on its blocking path,
	// i.e. the device-side work no span covers.
	plainMean := summarize(plain.submits.values()).mean
	L["trace.overhead_share"] = ratio(summarize(traced.submits.values()).mean, plainMean) - 1
	L["trace.unaccounted_ms"] = ix.selfMs(submits, ix.childIntervals)
	L["trace.unaccounted_share"] = ratio(L["trace.unaccounted_ms"], ix.meanMs(spanSubmit, ""))
	return L
}
