package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pptd"
)

// Privacy and sensing parameters shared by the streaming workloads: the
// simulated sensor quality (lambda1), the perturbation rate devices are
// told to use (lambda2), and the delta each window is accounted at.
const (
	lambda1 = 1.5
	lambda2 = 2.0
	delta   = 0.3
)

// streamConfig is the engine configuration of every streaming workload:
// privacy accounting on, CRH, no decay, numObjects objects.
func streamConfig(numObjects int) pptd.StreamConfig {
	return pptd.StreamConfig{NumObjects: numObjects, Lambda1: lambda1, Lambda2: lambda2, Delta: delta}
}

// deployment is the program under test, booted in-process on loopback:
// one durable streaming node, or a coordinator in front of durable
// cluster workers. Every node's handler is mounted behind the tracer.
type deployment struct {
	front   *pptd.Node   // the node clients talk to
	workers []*pptd.Node // cluster workers; nil for a single node
	servers []*server
	baseURL string
}

type server struct {
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// durable returns the persistence option of a production node: claim
// WAL on, default group commit, a snapshot at every window close.
func durable(dir string) pptd.Option {
	return pptd.WithPersistence(dir, pptd.WithSnapshotEvery(1))
}

func startSingle(dir string, numObjects int, tr *tracer) (*deployment, error) {
	node, err := pptd.NewNode(
		pptd.WithName("perfbench"),
		pptd.WithStreamConfig(streamConfig(numObjects)),
		durable(dir),
	)
	if err != nil {
		return nil, err
	}
	d := &deployment{front: node}
	srv, url, err := serve(tr.handler(spanNode, node.Handler()))
	if err != nil {
		_ = d.close()
		return nil, err
	}
	d.servers, d.baseURL = append(d.servers, srv), url
	return d, nil
}

func startCluster(dir string, numObjects, workers int, tr *tracer) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i := 0; i < workers; i++ {
		w, err := pptd.NewNode(
			pptd.WithName(fmt.Sprintf("perfbench-worker-%d", i)),
			pptd.WithStreamConfig(streamConfig(numObjects)),
			pptd.WithClusterWorker(),
			durable(filepath.Join(dir, fmt.Sprintf("worker-%d", i))),
		)
		if err != nil {
			_ = d.close()
			return nil, err
		}
		d.workers = append(d.workers, w)
		srv, url, err := serve(tr.handler(spanWorker, w.Handler()))
		if err != nil {
			_ = d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		urls = append(urls, url)
	}
	coord, err := pptd.NewNode(
		pptd.WithName("perfbench"),
		pptd.WithStreamConfig(streamConfig(numObjects)),
		pptd.WithClusterCoordinator(urls...),
	)
	if err != nil {
		_ = d.close()
		return nil, err
	}
	d.front = coord
	srv, url, err := serve(tr.handler(spanCoord, coord.Handler()))
	if err != nil {
		_ = d.close()
		return nil, err
	}
	d.servers, d.baseURL = append(d.servers, srv), url
	return d, nil
}

// frontLayer names the handler layer clients reach.
func (d *deployment) frontLayer() string {
	if d.workers != nil {
		return spanCoord
	}
	return spanNode
}

// engineNodes are the nodes that hold engine state and a store.
func (d *deployment) engineNodes() []*pptd.Node {
	if d.workers != nil {
		return d.workers
	}
	return []*pptd.Node{d.front}
}

func (d *deployment) registries() []*pptd.MetricsRegistry {
	regs := []*pptd.MetricsRegistry{d.front.Metrics()}
	for _, w := range d.workers {
		regs = append(regs, w.Metrics())
	}
	return regs
}

func (d *deployment) scrapes() []map[string][]float64 {
	var out []map[string][]float64
	for _, r := range d.registries() {
		out = append(out, scrape(r))
	}
	return out
}

// storeTotals sums the durable stores' counters.
type storeTotals struct {
	appends, syncs, journalBytes, segmentsDeleted int64
	flushCount                                    int64
	flushSum                                      float64
}

func (d *deployment) storeTotals() storeTotals {
	var t storeTotals
	for _, n := range d.engineNodes() {
		st := n.Store().Stats(false)
		t.appends += st.JournalAppends
		t.syncs += st.JournalSyncs
		t.journalBytes += st.JournalBytes
		t.segmentsDeleted += st.SegmentsDeleted
		t.flushCount += st.FlushLatencySeconds.Count
		t.flushSum += st.FlushLatencySeconds.Sum
	}
	return t
}

// engineClaims lists each engine node's accepted-claim total.
func (d *deployment) engineClaims() []int64 {
	var out []int64
	for _, n := range d.engineNodes() {
		out = append(out, n.Stream().Engine().TotalClaims())
	}
	return out
}

// snapshotBytes sums the size of the engine snapshots on disk.
func snapshotBytes(dirs []string) float64 {
	var sum int64
	for _, dir := range dirs {
		if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err == nil {
			sum += fi.Size()
		}
	}
	return float64(sum)
}

// close shuts the HTTP servers down, then the nodes: coordinator before
// workers, so no close round is left half-driven.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, s := range d.servers {
		if err := s.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		<-s.done
	}
	if d.front != nil {
		errs = append(errs, d.front.Close())
	}
	for _, w := range d.workers {
		errs = append(errs, w.Close())
	}
	return errors.Join(errs...)
}

// newClient returns a binary-wire client on its own transport, limited to
// conns connections, whose RoundTripper is the tracer's.
func newClient(baseURL string, conns int, tr *tracer) (*pptd.Client, *http.Transport, error) {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	hc := &http.Client{Transport: &tracedTransport{next: tp, tr: tr}, Timeout: 60 * time.Second}
	c, err := pptd.NewClient(baseURL, pptd.WithHTTPClient(hc), pptd.WithClaimWire(pptd.WireBinary))
	if err != nil {
		return nil, nil, err
	}
	return c, tp, nil
}

// device is one simulated participant: a pptd device helper plus the
// sensor it reads the ground truth through.
type device struct {
	user    *pptd.CampaignUser
	rng     *pptd.RNG
	sigma   float64
	objects []int
	windows int // windows in which the server accepted a submission
}

// fleet is a seeded device population sensing a static ground truth.
// Each device covers perDevice distinct objects out of numObjects, so
// accuracy is averaged over many objects and stays steady across seeds.
type fleet struct {
	truth   []float64
	devices []*device
}

func newFleet(seed uint64, n, perDevice, numObjects int) (*fleet, error) {
	rng := pptd.NewRNG(seed)
	f := &fleet{truth: make([]float64, numObjects), devices: make([]*device, n)}
	for i := range f.truth {
		f.truth[i] = 10 * rng.Float64()
	}
	for i := range f.devices {
		r := rng.Split()
		d := &device{rng: r, sigma: math.Sqrt(r.Exp() / lambda1)}
		seen := make(map[int]bool, perDevice)
		for len(d.objects) < perDevice {
			if o := r.Intn(numObjects); !seen[o] {
				seen[o] = true
				d.objects = append(d.objects, o)
			}
		}
		u, err := pptd.NewCampaignUser(fmt.Sprintf("dev-%06d", i), f.readings(d), r)
		if err != nil {
			return nil, err
		}
		d.user = u
		f.devices[i] = d
	}
	return f, nil
}

// readings is one fresh round of a device's sensing.
func (f *fleet) readings(d *device) []pptd.CampaignClaim {
	out := make([]pptd.CampaignClaim, len(d.objects))
	for i, o := range d.objects {
		out[i] = pptd.CampaignClaim{Object: o, Value: f.truth[o] + d.sigma*d.rng.Norm()}
	}
	return out
}

// resense gives every device fresh readings for the next window.
func (f *fleet) resense() error {
	for _, d := range f.devices {
		if err := d.user.SetReadings(f.readings(d)); err != nil {
			return err
		}
	}
	return nil
}

// maxWindows is the largest number of windows any device participated in.
func (f *fleet) maxWindows() int {
	m := 0
	for _, d := range f.devices {
		m = max(m, d.windows)
	}
	return m
}

// mae is a window's mean absolute error against the ground truth over
// covered objects; ok is false if any truth is not finite.
func (f *fleet) mae(w pptd.StreamWindowInfo) (mae float64, ok bool) {
	var sum float64
	var n int
	ok = true
	for i, t := range w.Truths {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			ok = false
		}
		if i < len(w.Covered) && w.Covered[i] && i < len(f.truth) {
			sum += math.Abs(t - f.truth[i])
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), ok
}
