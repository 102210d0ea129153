// Command perfbench is the repository benchmark. It boots the pptd
// program in-process on loopback through its public API, drives one
// seeded workload against it from the same process, checks the program's
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. It exits non-zero when an output check fails.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// README.md next to this file describes the workloads, every metric, and
// which end-to-end metric each layer metric should move on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"submits_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"result_p50_ms", "ms"},
	{"truth_mae", "abs"},
	{"retained_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics, by module. A workload reports 0
// for a layer it does not exercise.
var perLayer = []metricDef{
	{"crowd.round_trips_per_submit", "count"},
	{"crowd.bytes_per_submit", "bytes"},
	{"crowd.campaign_rtt_ms", "ms"},
	{"crowd.claims_rtt_ms", "ms"},
	{"crowd.claims_handler_ms", "ms"},
	{"crowd.transport_ms", "ms"},
	{"crowd.window_handler_ms", "ms"},
	{"stream.close_ms", "ms"},
	{"stream.estimate_ms", "ms"},
	{"stream.estimate_iterations", "count"},
	{"stream.tracked_users", "count"},
	{"stream.stall_p99_ms", "ms"},
	{"stream.free_p99_ms", "ms"},
	{"stream.queue_depth_max", "count"},
	{"streamstore.appends_per_sync", "count"},
	{"streamstore.flush_ms", "ms"},
	{"streamstore.sync_busy_share", "share"},
	{"streamstore.journal_bytes_per_submit", "bytes"},
	{"streamstore.persist_close_ms", "ms"},
	{"streamstore.snapshot_bytes", "bytes"},
	{"core.perturb_ms", "ms"},
	{"core.perturb_ns_per_cell", "ns"},
	{"truth.crh_ms", "ms"},
	{"truth.gtm_ms", "ms"},
	{"truth.catd_ms", "ms"},
	{"truth.iterations", "count"},
	{"synthetic.generate_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.gc_cpu_fraction", "share"},
	{"runtime.peak_live_heap_mb", "MiB"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.unaccounted_ms", "ms"},
	{"trace.unaccounted_share", "share"},
}

// clusterLayer are the cluster module's layer metrics. Only the cluster
// workload, which BENCHMARK.json leaves out, exercises them, so they are
// printed as detail lines rather than in the result.
var clusterLayer = []metricDef{
	{"cluster.front_handler_ms", "ms"},
	{"cluster.worker_handler_ms", "ms"},
	{"cluster.route_self_ms", "ms"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.close_rpc_ms", "ms"},
	{"cluster.commit_rpc_ms", "ms"},
	{"cluster.merge_self_ms", "ms"},
}

// missedMs stands in, in the JSON result, for a percentile that landed on
// a failed operation (+Inf: it missed every latency limit).
const missedMs = 1e9

// report is what one run of a workload produced.
type report struct {
	attempted, failed int64
	checks            []check
	e2e               map[string]float64
	layers            map[string]float64
	lines             []string // human-readable detail printed before the result
}

func (r *report) addLine(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

var workloads = map[string]func(options) (*report, error){
	"ingest":  runIngest,
	"close":   runClose,
	"batch":   runBatch,
	"cluster": runCluster,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest, close, batch or cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "how long each measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for state directories and span files")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload ingest|close|batch|cluster, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// emit prints the detail lines, the checks, and the result object last.
func emit(o options, rep *report) error {
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, c := range rep.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %s %s: %s\n", status, c.name, c.detail)
	}
	fmt.Printf("error_rate = %.6f (%d failed of %d attempted)\n",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	defs, values := endToEnd, rep.e2e
	if o.trace {
		defs, values = perLayer, rep.layers
		if o.workload == "cluster" {
			for _, d := range clusterLayer {
				fmt.Printf("%s = %.6g %s\n", d.name, values[d.name], d.unit)
			}
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 1) {
			v = missedMs
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%s = %.6g %s\n", d.name, v, d.unit)
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runDir makes a fresh directory for this run's state under the workdir;
// the caller removes it.
func runDir(o options) (string, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.workdir, fmt.Sprintf("run-%s-%d-", o.workload, o.seed))
}

// spanPath is where a traced run writes its spans.
func spanPath(o options) string {
	return filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and only the last set-up is kept for measuring.
const setupRepeats = 3

func medianSeconds(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return median(vs)
}

func fmtSamples(name string, s summary) string {
	return fmt.Sprintf("%s: n=%d p50=%.4gms p99=%.4gms max=%.4gms mean=%.4gms", name, s.n, s.p50, s.p99, s.max, s.mean)
}
