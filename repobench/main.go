// Command repobench is the repository's end-to-end benchmark. It drives
// the system the way users do — a 4-node node-mode cluster through its
// rank-0 HTTP control API, and the multi-run service through its HTTP API
// with a write-ahead store — checks every output, and prints one JSON
// result line. See README.md for the workloads, the metrics and how the
// layers map onto the end-to-end numbers.
//
//	repobench --workload node_zipf --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// instances is how many independent copies of the workload an untraced
// run sets up, measures for an equal share of --seconds, checks and tears
// down. Rates, latencies and setup_s are medians over them: on a small
// shared host one copy can settle into a slow scheduling pattern for its
// whole life, and the median of several copies does not follow it.
const instances = 5

// The workloads; README.md records why each was chosen and which layers
// it stresses.
var nodeWorkloads = map[string]nodeWorkload{
	"node_zipf": {
		Name: "node_zipf", Preset: "zipf_hot", BatchLen: 50000, K: 1024,
		P: 4, Shards: 4, Pipeline: true,
		Warmup: 100, CountWin: 400, ReadEvery: 10,
	},
	"node_select": {
		Name: "node_select", Preset: "uniform_poisson", BatchLen: 8000, K: 32768,
		P: 4, Shards: 4, Pipeline: true,
		Warmup: 100, CountWin: 500, ReadEvery: 25,
	},
}

var svcWorkloads = map[string]svcWorkload{
	"svc_rw": {
		Name: "svc_rw", P: 4, K: 1024, PerPE: 2000, Bodies: 64,
		Warmup: 50, CountWin: 300, ReadRate: 20,
	},
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
}

func main() {
	var opt options
	var secs float64
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: node_zipf, node_select or svc_rw")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 50, "measured seconds, shared equally by the run's timed phases")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and traces")
	flag.Parse()
	opt.seconds = time.Duration(secs * float64(time.Second))
	opt.trace = trace == 1
	if opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fatalf("need --seconds > 0 and --trace 0|1")
	}

	rep := newReport(opt)
	var err error
	if w, ok := nodeWorkloads[opt.workload]; ok {
		rep.prov["params"] = w
		err = runNode(w, opt, rep)
	} else if w, ok := svcWorkloads[opt.workload]; ok {
		rep.prov["params"] = w
		err = runSvc(w, opt, rep)
	} else {
		fatalf("unknown --workload %q (want node_zipf, node_select or svc_rw)", opt.workload)
	}
	if err != nil {
		fatalf("%s: %v", opt.workload, err)
	}
	rep.print()
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repobench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics, the output checks and the provenance.
type report struct {
	metrics           map[string]metric
	samples           map[string]int // sample count behind each percentile
	prov              map[string]any
	failures          []string
	attempted, failed int
}

func newReport(opt options) *report {
	r := &report{metrics: map[string]metric{}, samples: map[string]int{}, prov: map[string]any{}}
	r.prov["workload"] = opt.workload
	r.prov["seed"] = opt.seed
	r.prov["seconds"] = opt.seconds.Seconds()
	r.prov["trace"] = opt.trace
	r.prov["cpu_model"] = cpuModel()
	r.prov["nproc"] = runtime.NumCPU()
	r.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.prov["go_version"] = runtime.Version()
	r.prov["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	return r
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setQuantile reports the q-quantile of xs and records its sample count;
// a tail percentile with fewer than minTail samples beyond it is noted as
// unsupported in the provenance.
func (r *report) setQuantile(name string, xs []float64, q float64) {
	v, beyond := quantile(xs, q)
	r.set(name, "ms", v)
	r.samples[name] = len(xs)
	if q > 0.5 && beyond < minTail {
		r.prov["unsupported_"+name] = fmt.Sprintf("only %d of %d samples beyond p%g", beyond, len(xs), q*100)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// print writes the provenance line, then the result as the last line.
func (r *report) print() {
	r.prov["percentile_samples"] = r.samples
	if len(r.failures) > 0 {
		r.prov["check_failures"] = r.failures
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "repobench: check failed:", f)
		}
	}
	prov, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		fatalf("encoding provenance: %v", err)
	}
	fmt.Println(string(prov))
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(res))
}

// absent reports per-layer metrics of layers the workload does not run.
// They read 0 and are listed in the provenance, never estimated.
func (r *report) absent(names ...string) {
	for _, n := range names {
		r.set(n, layerUnits[n], 0)
	}
	r.prov["absent_layer_metrics"] = names
}

// resources is the process cost of one timed phase.
type resources struct {
	wall      time.Duration
	cpu       time.Duration
	allocB    uint64
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds, as the Go runtime accounts it
	peakRSSMB float64
}

type resProbe struct {
	t0       time.Time
	cpu0     time.Duration
	alloc0   uint64
	gc0, tc0 float64
}

func startResources() resProbe {
	gc, tc := gcCPU()
	return resProbe{t0: time.Now(), cpu0: processCPU(), alloc0: totalAlloc(), gc0: gc, tc0: tc}
}

func (p resProbe) stop() resources {
	wall := time.Since(p.t0)
	gc, tc := gcCPU()
	return resources{
		wall:      wall,
		cpu:       processCPU() - p.cpu0,
		allocB:    totalAlloc() - p.alloc0,
		gcCPU:     gc - p.gc0,
		totalCPU:  tc - p.tc0,
		peakRSSMB: peakRSSMB(),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// instance is one set-up, timed and checked copy of a workload inside an
// untraced run.
type instance struct {
	seed               uint64
	setupS             float64
	items              int64
	res                resources
	roundMS, readMS    []float64
	msgs, words, bytes float64 // per round over the fixed count window
}

// endToEnd reports the end-to-end metrics of an untraced run: each rate
// and latency is the median over the run's instances, each traffic count
// the mean of their count windows. The round p90 goes to the provenance
// only; it is not gated (see README.md), and the traced run reports it as
// loadgen.round_p90_ms.
func (r *report) endToEnd(insts []instance) {
	var ips, p50, p90, read, cpu, msgs, words, bytes, setups []float64
	var rounds, reads []int
	peak := 0.0
	for _, in := range insts {
		ips = append(ips, ratio(float64(in.items), in.res.wall.Seconds()))
		v, _ := quantile(in.roundMS, 0.5)
		p50 = append(p50, v)
		v, _ = quantile(in.roundMS, 0.9)
		p90 = append(p90, v)
		v, _ = quantile(in.readMS, 0.5)
		read = append(read, v)
		cpu = append(cpu, ratio(float64(in.res.cpu), float64(in.items)))
		msgs = append(msgs, in.msgs)
		words = append(words, in.words)
		bytes = append(bytes, in.bytes)
		setups = append(setups, in.setupS)
		rounds = append(rounds, len(in.roundMS))
		reads = append(reads, len(in.readMS))
		peak = max(peak, in.res.peakRSSMB)
	}
	r.set("items_per_s", "items/s", median(ips))
	r.set("round_p50_ms", "ms", median(p50))
	r.set("read_p50_ms", "ms", median(read))
	r.set("msgs_per_round", "count", mean(msgs))
	r.set("words_per_round", "count", mean(words))
	r.set("bytes_per_round", "count", mean(bytes))
	r.set("cpu_ns_per_item", "ns", median(cpu))
	r.set("peak_rss_mb", "MiB", peak)
	r.set("setup_s", "s", median(setups))
	r.set("ok_frac", "ratio", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	r.samples["round_p50_ms"] = sum(rounds)
	r.samples["read_p50_ms"] = sum(reads)
	r.prov["instances"] = map[string]any{
		"seeds": seedsOf(insts), "items_per_s": ips, "round_p50_ms": p50, "round_p90_ms": p90,
		"read_p50_ms": read, "cpu_ns_per_item": cpu, "msgs_per_round": msgs, "words_per_round": words,
		"bytes_per_round": bytes, "setup_s": setups, "rounds": rounds, "reads": reads,
	}
}

func seedsOf(insts []instance) []uint64 {
	out := make([]uint64, len(insts))
	for i, in := range insts {
		out[i] = in.seed
	}
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// instanceSeed derives the input seed of an untraced run's i-th
// instance, so each instance samples a different stream and the traffic
// counts average over several.
func instanceSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }

// runtimeLayer reports the Go runtime's cost of one timed phase.
func (r *report) runtimeLayer(items int64, res resources) {
	r.set("runtime.alloc_bytes_per_item", "B", ratio(float64(res.allocB), float64(items)))
	r.set("runtime.gc_cpu_pct", "%", 100*ratio(res.gcCPU, res.totalCPU))
}

// layerUnits is every per-layer metric with its unit.
var layerUnits = map[string]string{
	"workload.synth_ns_per_item":       "ns",
	"workload.arrival_us_per_round":    "us",
	"workload.compile_us":              "us",
	"nodesvc.cmd_overhead_ms":          "ms",
	"core.scan_ms_per_round":           "ms",
	"core.scan_self_ns_per_item":       "ns",
	"core.coll_ms_per_round":           "ms",
	"core.overlap_pct":                 "%",
	"core.candidates_per_item":         "ratio",
	"distsel.levels_per_selection":     "ratio",
	"distsel.self_ms_per_round":        "ms",
	"transport.send_us_per_round":      "us",
	"transport.recv_wait_ms_per_round": "ms",
	"transport.flush_us_per_round":     "us",
	"transport.bytes_per_msg":          "B",
	"service.decode_ms_per_req":        "ms",
	"service.round_ms_mean":            "ms",
	"service.sample_encode_ms":         "ms",
	"store.append_us_mean":             "us",
	"store.fsync_ms_mean":              "ms",
	"store.wal_bytes_per_round":        "B",
	"store.checkpoints_per_1k_rounds":  "count",
	"runtime.alloc_bytes_per_item":     "B",
	"runtime.gc_cpu_pct":               "%",
	"loadgen.round_p90_ms":             "ms",
	"loadgen.read_p90_ms":              "ms",
	"loadgen.read_late_p90_ms":         "ms",
	"ledger.residual_pct":              "%",
	"ledger.trace_overhead_pct":        "%",
}

// checkLayerSet fails the run unless exactly the per-layer metrics were
// reported.
func (r *report) checkLayerSet() {
	for n := range layerUnits {
		if _, ok := r.metrics[n]; !ok {
			r.fail("per-layer metric %s was not reported", n)
		}
	}
	if len(r.metrics) != len(layerUnits) {
		r.fail("reported %d per-layer metrics, want %d", len(r.metrics), len(layerUnits))
	}
}

// writeTrace stores a traced run's per-round records under the workdir.
func writeTrace(workdir, name string, seed uint64, v any) (string, error) {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
