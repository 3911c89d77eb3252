// Command reservoir-loadgen drives the reservoir-serve HTTP API with a
// configurable mix of concurrent runs, clients, and batch sizes and emits
// a machine-readable BENCH_*.json report (throughput, p50/p95/p99 request
// latency, allocation counters) in the shared schema of internal/bench —
// the wall-clock counterpart of reservoir-bench's virtual-time paper
// experiments, and the baseline every service-scaling PR is judged
// against (see docs/BENCHMARKS.md).
//
//	reservoir-loadgen                              # in-process server, default grid
//	reservoir-loadgen -addr http://host:8080       # external server
//	reservoir-loadgen -clients 1,4,16 -batch 1000,10000 -mode wait
//	reservoir-loadgen -scenario all -out BENCH_service_scenarios.json
//	reservoir-loadgen -out BENCH_service_baseline.json
//	reservoir-loadgen -data /tmp/rsv -fsync always # measure persistence overhead
//
// Unless -addr points at an external server, the service is hosted
// in-process on a loopback listener: requests still cross the full HTTP
// stack, and the allocation counters then cover server and client
// together (alloc metrics of an external server are not visible and
// reported as client-side only).
//
// Modes: -mode wait posts every round with ?wait=true and measures the
// full round-trip (queue + round) latency; -mode async posts
// fire-and-forget 202s, counts 429 backpressure rejections (retried with
// backoff), measures submit latency, and waits for the queue to drain
// before stamping throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"reservoir/internal/bench"
	"reservoir/internal/service"
	"reservoir/internal/store"
	"reservoir/internal/workload/scenario"
)

type config struct {
	addr      string
	cluster   string
	out       string
	name      string
	kind      string
	algo      string
	p         int
	k         int
	runs      int
	clients   []int
	batch     []int
	rounds    int
	mode      string
	source    string
	scenario  string
	scens     []scenario.Spec
	seed      uint64
	queue     int
	data      string
	fsync     string
	sampleOut string
	chaos     bool
	chaosWait time.Duration
	interval  time.Duration
}

func main() {
	var cfg config
	var clientsFlag, batchFlag string
	flag.StringVar(&cfg.addr, "addr", "", "target server base URL (default: host the service in-process)")
	flag.StringVar(&cfg.cluster, "cluster", "", "drive a multi-process cluster: base URL of the rank-0 node (reservoir-serve -peers)")
	flag.StringVar(&cfg.out, "out", "BENCH_service_baseline.json", "output report path")
	flag.StringVar(&cfg.name, "name", "service_baseline", "report name")
	flag.StringVar(&cfg.kind, "kind", "cluster", "run kind: cluster|sequential|windowed")
	flag.StringVar(&cfg.algo, "algo", "ours", "sampling algorithm for cluster runs: ours (distributed) or gather (centralized baseline)")
	flag.IntVar(&cfg.p, "p", 4, "PEs per cluster run")
	flag.IntVar(&cfg.k, "k", 256, "sample size per run")
	flag.IntVar(&cfg.runs, "runs", 2, "concurrent runs (shards) per configuration")
	flag.StringVar(&clientsFlag, "clients", "1,4,8", "comma-separated concurrent ingest clients per run")
	flag.StringVar(&batchFlag, "batch", "1000,10000", "comma-separated items per PE per round")
	flag.IntVar(&cfg.rounds, "rounds", 20, "rounds each client posts")
	flag.StringVar(&cfg.mode, "mode", "wait", "ingest mode: wait (sync 200) or async (202 + drain)")
	flag.StringVar(&cfg.source, "source", "synthetic", "round payload: synthetic (server-side) or explicit (JSON batches)")
	flag.StringVar(&cfg.scenario, "scenario", "", "comma-separated workload scenario presets (or \"all\") to bench instead of the primitive uniform source; with -cluster exactly one")
	flag.Uint64Var(&cfg.seed, "seed", 0xC0FFEE, "run seed")
	flag.IntVar(&cfg.queue, "queue", 0, "per-run ingest queue depth (0 = server default)")
	flag.StringVar(&cfg.data, "data", "", "persistence directory for the in-process server (empty = persistence off; ignored with -addr)")
	flag.StringVar(&cfg.fsync, "fsync", "interval", "WAL fsync policy with -data: always, interval, or off")
	flag.StringVar(&cfg.sampleOut, "sample-out", "", "with -cluster: write the merged sample as a verifiable dump for reservoir-verify -match")
	flag.BoolVar(&cfg.chaos, "chaos", false, "with -cluster: tolerate node kill/restart cycles — retry requests through connection errors and control-plane downtime")
	flag.DurationVar(&cfg.chaosWait, "chaos-timeout", 3*time.Minute, "with -chaos: give up after this long without a successful request")
	flag.DurationVar(&cfg.interval, "interval", 0, "with -cluster: pause between round requests (gives a chaos harness time to inject faults mid-run)")
	flag.Parse()

	var err error
	if cfg.clients, err = parseInts(clientsFlag); err != nil {
		fatalf("-clients: %v", err)
	}
	if cfg.batch, err = parseInts(batchFlag); err != nil {
		fatalf("-batch: %v", err)
	}
	if cfg.mode != "wait" && cfg.mode != "async" {
		fatalf("-mode must be wait or async, got %q", cfg.mode)
	}
	if cfg.source != "synthetic" && cfg.source != "explicit" {
		fatalf("-source must be synthetic or explicit, got %q", cfg.source)
	}
	if cfg.algo != "ours" && cfg.algo != "gather" {
		fatalf("-algo must be ours or gather, got %q", cfg.algo)
	}
	if cfg.sampleOut != "" && cfg.cluster == "" {
		fatalf("-sample-out requires -cluster")
	}
	if cfg.scenario != "" {
		if cfg.source == "explicit" {
			fatalf("-scenario requires -source synthetic (scenarios are generated server-side)")
		}
		if cfg.scens, err = parseScenarios(cfg.scenario); err != nil {
			fatalf("-scenario: %v", err)
		}
		if cfg.cluster != "" && len(cfg.scens) != 1 {
			fatalf("-cluster needs exactly one -scenario (the sample dump replays one stream), got %d", len(cfg.scens))
		}
	}
	if (cfg.chaos || cfg.interval > 0) && cfg.cluster == "" {
		fatalf("-chaos and -interval require -cluster")
	}

	if cfg.cluster != "" {
		runClusterBench(cfg)
		return
	}

	base := cfg.addr
	inProcess := base == ""
	if inProcess {
		var opts []service.Option
		var st *store.Store
		if cfg.data != "" {
			policy, err := store.ParseFsyncPolicy(cfg.fsync)
			if err != nil {
				fatalf("%v", err)
			}
			if st, err = store.Open(cfg.data, store.WithFsync(policy)); err != nil {
				fatalf("%v", err)
			}
			defer st.Close()
			opts = append(opts, service.WithStore(st))
		}
		svc := service.New(opts...)
		if err := svc.Recover(); err != nil {
			fatalf("%v", err)
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("listen: %v", err)
		}
		hs := &http.Server{Handler: svc.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		persist := "persistence off"
		if cfg.data != "" {
			persist = fmt.Sprintf("data=%s fsync=%s", cfg.data, cfg.fsync)
		}
		fmt.Printf("reservoir-loadgen: in-process server on %s (%s)\n", base, persist)
	} else {
		fmt.Printf("reservoir-loadgen: targeting %s\n", base)
	}

	maxConns := cfg.runs * maxInt(cfg.clients)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxConns + 8,
		MaxIdleConnsPerHost: maxConns + 8,
	}}

	rep := bench.NewReport("reservoir-loadgen", cfg.name)
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	// -data only applies to the in-process server; against an external
	// server the report must not claim a persistence mode it didn't test.
	persistence := "off"
	if inProcess && cfg.data != "" {
		persistence = cfg.fsync
	}
	rep.Params = map[string]any{
		"kind": cfg.kind, "algo": cfg.algo, "p": cfg.p, "k": cfg.k, "runs": cfg.runs,
		"rounds_per_client": cfg.rounds, "mode": cfg.mode, "source": cfg.source,
		"in_process": inProcess, "seed": cfg.seed, "queue_depth": cfg.queue,
		"persistence": persistence,
	}

	// With -scenario the grid gains an outer axis: every preset is
	// benched at every (clients, batch) point. A nil entry keeps the
	// legacy primitive-uniform grid when no scenarios were requested.
	scens := []*scenario.Spec{nil}
	if len(cfg.scens) > 0 {
		scens = scens[:0]
		for i := range cfg.scens {
			scens = append(scens, &cfg.scens[i])
		}
		rep.Params["scenarios"] = cfg.scenario
	}
	for _, sc := range scens {
		for _, nClients := range cfg.clients {
			for _, batch := range cfg.batch {
				res := runConfig(client, base, cfg, nClients, batch, sc)
				name := fmt.Sprintf("clients=%d,batch=%d", nClients, batch)
				params := map[string]any{"clients": nClients, "batch": batch, "runs": cfg.runs, "mode": cfg.mode}
				if sc != nil {
					name = "scenario=" + sc.Name + "," + name
					params["scenario"] = sc.Name
				}
				rep.Add(name, params, res)
				fmt.Printf("%-28s %12.0f items/s  p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  (%d reqs, %d rejected)\n",
					name, res["throughput_items_per_s"], res["latency_p50_ms"],
					res["latency_p95_ms"], res["latency_p99_ms"],
					int(res["requests"]), int(res["rejected_429"]))
			}
		}
	}

	if err := rep.WriteFile(cfg.out); err != nil {
		fatalf("writing %s: %v", cfg.out, err)
	}
	fmt.Printf("wrote %d results to %s\n", len(rep.Results), cfg.out)
}

// runConfig measures one (clients, batch[, scenario]) point: cfg.runs
// fresh runs, each fed by nClients concurrent clients posting cfg.rounds
// rounds.
func runConfig(client *http.Client, base string, cfg config, nClients, batch int, sc *scenario.Spec) map[string]float64 {
	runIDs := make([]string, cfg.runs)
	for i := range runIDs {
		runIDs[i] = createRun(client, base, cfg, i)
	}
	defer func() {
		for _, id := range runIDs {
			req, _ := http.NewRequest("DELETE", base+"/v1/runs/"+id, nil)
			if resp, err := client.Do(req); err == nil {
				drainClose(resp)
			}
		}
	}()

	body := `{"synthetic":{"batch_len":` + strconv.Itoa(batch) + `}}`
	if sc != nil {
		b, err := json.Marshal(map[string]any{
			"synthetic": service.SyntheticSpec{BatchLen: batch, Scenario: sc},
		})
		if err != nil {
			fatalf("encoding scenario spec: %v", err)
		}
		body = string(b)
	}
	if cfg.source == "explicit" {
		body = explicitBody(cfg.p, batch, cfg.seed)
	}
	path := "/batches"
	if cfg.mode == "wait" {
		path = "/batches?wait=true"
	}

	totalReqs := cfg.runs * nClients * cfg.rounds
	durs := make([]time.Duration, 0, totalReqs)
	var mu sync.Mutex
	var errs, rejected int
	// okByRun counts successfully submitted rounds (200/202) per run, so
	// throughput reflects rounds that actually ran, not the requested
	// count — errors must not inflate the baseline.
	okByRun := make([]int64, cfg.runs)

	// Items are counted from each run's items_processed: arrival
	// processes and rate skew make real batches differ from the
	// requested batch length.
	itemsBefore := make([]int64, cfg.runs)
	for i, id := range runIDs {
		itemsBefore[i] = mustStats(client, base, id).ItemsProcessed
	}

	var msBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	var wg sync.WaitGroup
	for runIdx, id := range runIDs {
		url := base + "/v1/runs/" + id + path
		for c := 0; c < nClients; c++ {
			wg.Add(1)
			go func(runIdx int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var local []time.Duration
				var localOK, localErrs, localRej int
				for r := 0; r < cfg.rounds; r++ {
					for {
						t0 := time.Now()
						resp, err := client.Post(url, "application/json", strings.NewReader(body))
						if err != nil {
							localErrs++
							break
						}
						code := resp.StatusCode
						drainClose(resp)
						if code == http.StatusTooManyRequests {
							localRej++
							// Backpressure: retry with jittered backoff.
							time.Sleep(time.Duration(500+rng.Intn(1500)) * time.Microsecond)
							continue
						}
						local = append(local, time.Since(t0))
						if code == http.StatusOK || code == http.StatusAccepted {
							localOK++
						} else {
							localErrs++
						}
						break
					}
				}
				mu.Lock()
				durs = append(durs, local...)
				okByRun[runIdx] += int64(localOK)
				errs += localErrs
				rejected += localRej
				mu.Unlock()
			}(runIdx, int64(cfg.seed)+int64(runIdx)*1_000_003+int64(c)*7919)
		}
	}
	wg.Wait()

	totalRounds := 0
	for i, id := range runIDs {
		if cfg.mode == "async" {
			// Fire-and-forget submissions: wait until every accepted
			// round has been processed before stamping throughput.
			waitDrained(client, base, id, int(okByRun[i]))
		}
		totalRounds += int(okByRun[i])
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	var totalItems float64
	for i, id := range runIDs {
		totalItems += float64(mustStats(client, base, id).ItemsProcessed - itemsBefore[i])
	}
	perRound := func(v float64) float64 {
		if totalRounds == 0 {
			return 0 // avoid NaN (unmarshalable) when every round failed
		}
		return v / float64(totalRounds)
	}
	m := map[string]float64{
		"throughput_items_per_s": totalItems / elapsed.Seconds(),
		"items":                  totalItems,
		"rounds_per_s":           float64(totalRounds) / elapsed.Seconds(),
		"wall_s":                 elapsed.Seconds(),
		"requests":               float64(len(durs)),
		"errors":                 float64(errs),
		"rejected_429":           float64(rejected),
		"allocs_per_round":       perRound(float64(msAfter.Mallocs - msBefore.Mallocs)),
		"alloc_bytes_per_round":  perRound(float64(msAfter.TotalAlloc - msBefore.TotalAlloc)),
	}
	bench.Summarize(durs).Metrics("latency", m)
	return m
}

func createRun(client *http.Client, base string, cfg config, i int) string {
	rc := map[string]any{"kind": cfg.kind, "k": cfg.k, "seed": cfg.seed + uint64(i)}
	if cfg.kind == "cluster" {
		rc["p"] = cfg.p
		rc["algorithm"] = cfg.algo
	}
	if cfg.queue > 0 {
		rc["queue_depth"] = cfg.queue
	}
	body, _ := json.Marshal(rc)
	resp, err := client.Post(base+"/v1/runs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		fatalf("create run: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		fatalf("create run: %s: %s", resp.Status, raw)
	}
	var cr service.CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		fatalf("create run: decoding %q: %v", raw, err)
	}
	return cr.ID
}

// waitDrained polls stats until the run has completed the expected rounds
// (or 30s pass), so async throughput covers processing, not just submits.
func waitDrained(client *http.Client, base, id string, rounds int) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := runStats(client, base, id)
		if err == nil && st.Rounds >= rounds && st.PendingRounds == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "warning: run %s did not drain %d rounds in 30s\n", id, rounds)
}

// runStats fetches one run's stats.
func runStats(client *http.Client, base, id string) (service.Stats, error) {
	var st service.Stats
	resp, err := client.Get(base + "/v1/runs/" + id + "/stats")
	if err != nil {
		return st, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("run %s stats: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("run %s stats: %w", id, err)
	}
	return st, nil
}

// mustStats is runStats for the counts a report cannot do without.
func mustStats(client *http.Client, base, id string) service.Stats {
	st, err := runStats(client, base, id)
	if err != nil {
		fatalf("%v", err)
	}
	return st
}

// explicitBody builds one explicit-batch ingest request: p batches of n
// deterministic weighted items (the weights matter for the samplers, the
// repeated IDs do not matter for throughput measurement).
func explicitBody(p, n int, seed uint64) string {
	var b strings.Builder
	b.Grow(p * n * 24)
	b.WriteString(`{"batches":[`)
	id := seed
	for pe := 0; pe < p; pe++ {
		if pe > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			id = id*6364136223846793005 + 1442695040888963407
			w := 1 + float64(id%997)/10
			fmt.Fprintf(&b, `{"w":%g,"id":%d}`, w, id)
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.String()
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseScenarios(list string) ([]scenario.Spec, error) {
	if list == "all" {
		return scenario.Presets(), nil
	}
	var out []scenario.Spec
	for _, part := range strings.Split(list, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		sp, ok := scenario.Preset(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(scenario.Names(), ", "))
		}
		out = append(out, sp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scenario list")
	}
	return out, nil
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
