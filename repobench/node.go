package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"reservoir"
	"reservoir/internal/nodesvc"
	"reservoir/internal/service"
	"reservoir/internal/transport"
	"reservoir/internal/transport/tcpnet"
	"reservoir/internal/workload"
	"reservoir/internal/workload/scenario"
)

// nodeWorkload is one node-mode workload: a strict-mode p-node cluster on
// loopback TCP, driven one round per POST through rank 0's control API.
type nodeWorkload struct {
	Name      string `json:"name"`
	Preset    string `json:"preset"`
	BatchLen  int    `json:"mean_items_per_pe_round"`
	K         int    `json:"k"`
	P         int    `json:"p"`
	Shards    int    `json:"shards"`
	Pipeline  bool   `json:"pipeline"`
	Warmup    int    `json:"warmup_rounds"`
	CountWin  int    `json:"count_window_rounds"`
	ReadEvery int    `json:"read_every_rounds"`
}

// spec is the synthetic spec every round POST carries.
func (w nodeWorkload) spec() (service.SyntheticSpec, error) {
	sc, ok := scenario.Preset(w.Preset)
	if !ok {
		return service.SyntheticSpec{}, fmt.Errorf("unknown scenario preset %q", w.Preset)
	}
	return service.SyntheticSpec{Scenario: &sc, BatchLen: w.BatchLen, Rounds: 1}, nil
}

// config is the sampler configuration every node of the cluster runs.
func (w nodeWorkload) config(seed uint64) reservoir.Config {
	return reservoir.Config{K: w.K, Weighted: true, Seed: seed, Shards: w.Shards, Pipeline: w.Pipeline}
}

// source rebuilds the stream the cluster generates, exactly as nodesvc
// does (same spec, same run seed).
func (w nodeWorkload) source(seed uint64) (reservoir.Source, error) {
	spec, err := w.spec()
	if err != nil {
		return nil, err
	}
	return spec.BuildSource(service.RunConfig{Seed: seed})
}

// nodeCluster is a running in-process cluster plus the one client
// connection that drives it.
type nodeCluster struct {
	w      nodeWorkload
	seed   uint64
	base   string
	hc     *http.Client
	ts     []*tcpnet.Transport
	traced []*tracedConn
	errs   []error
	wg     sync.WaitGroup

	body  []byte // the pre-encoded round POST
	round int    // rounds posted so far
}

// startNodeCluster forms the mesh, starts every node's server, and
// returns once rank 0's control API is listening. With a tracer, every
// node's transport is wrapped in a tracedConn.
func startNodeCluster(w nodeWorkload, seed uint64, tr *tracer) (*nodeCluster, error) {
	spec, err := w.spec()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(map[string]any{"synthetic": spec, "defer_stats": true})
	if err != nil {
		return nil, err
	}
	ts, err := tcpnet.Loopback(w.P)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, t := range ts {
			t.Close()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeAll()
		return nil, err
	}
	c := &nodeCluster{
		w: w, seed: seed, body: body, ts: ts,
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute},
		errs: make([]error, w.P),
	}
	srvs := make([]*nodesvc.Server, w.P)
	for i := range ts {
		var conn transport.Conn = ts[i]
		if tr != nil {
			tc := &tracedConn{inner: ts[i], tr: tr}
			c.traced = append(c.traced, tc)
			conn = tc
		}
		opts := nodesvc.Options{Conn: conn, Config: w.config(seed)}
		if i == 0 {
			opts.Listener = ln
		}
		if srvs[i], err = nodesvc.New(opts); err != nil {
			ln.Close()
			closeAll()
			return nil, err
		}
	}
	for i, srv := range srvs {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.errs[i] = srv.Run()
		}()
	}
	return c, nil
}

// close shuts the cluster down through its API and waits for every node.
func (c *nodeCluster) close() error {
	_, shutErr := c.do(http.MethodPost, "/v1/cluster/shutdown", nil)
	if shutErr != nil {
		// Closing the mesh makes every blocked node fail out.
		for _, t := range c.ts {
			t.Close()
		}
	}
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		err = errors.New("cluster did not shut down within 30s")
	}
	for _, t := range c.ts {
		t.Close()
	}
	c.hc.CloseIdleConnections()
	if shutErr != nil {
		return fmt.Errorf("cluster shutdown: %w", shutErr)
	}
	if err != nil {
		return err
	}
	return errors.Join(c.errs...)
}

// do issues one control-API request and returns the body of a 2xx reply.
func (c *nodeCluster) do(method, path string, body []byte) ([]byte, error) {
	return do(c.hc, method, c.base+path, body)
}

// refresh drains any deferred selection and all-reduces fresh stats.
func (c *nodeCluster) refresh() (nodesvc.Stats, error) {
	var st nodesvc.Stats
	data, err := c.do(http.MethodGet, "/v1/cluster/stats?refresh=1", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// nodePhase is what one timed phase observed.
type nodePhase struct {
	roundMS, readMS   []float64
	posts             []interval // tracer clock; trace runs only
	attempted, failed int
	badReads          int
	s0, s1, s2        nodesvc.Stats
	res               resources
}

// step posts the next round and, when the round index is a read round,
// reads the sample inline on the same connection. Reads sit at fixed
// rounds so the traffic counts of a window repeat exactly for a seed.
func (c *nodeCluster) step(ph *nodePhase, tr *tracer) error {
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	start := time.Now()
	_, err := c.do(http.MethodPost, "/v1/cluster/rounds", c.body)
	lat := time.Since(start)
	c.round++
	if ph != nil {
		ph.attempted++
		if err != nil {
			ph.failed++
		} else {
			ph.roundMS = append(ph.roundMS, ms(lat))
			if tr != nil {
				ph.posts = append(ph.posts, interval{t0, tr.now()})
			}
		}
	}
	if err != nil && ph == nil {
		return err
	}
	if c.round%c.w.ReadEvery != 0 {
		return nil
	}
	start = time.Now()
	data, err := c.do(http.MethodGet, "/v1/cluster/sample", nil)
	lat = time.Since(start)
	if ph == nil {
		if err == nil && !sampleSizeOK(data, c.w.K) {
			err = fmt.Errorf("warm-up read at round %d: sample size is not k=%d", c.round, c.w.K)
		}
		return err
	}
	ph.attempted++
	switch {
	case err != nil:
		ph.failed++
	case !sampleSizeOK(data, c.w.K):
		ph.badReads++
	default:
		ph.readMS = append(ph.readMS, ms(lat))
	}
	return nil
}

// sampleSizeOK is the inline read check: the reply's size field and its
// item count both equal k. Counting the "id" keys avoids decoding a 32k
// item reply inside the closed loop; the final sample is decoded and
// checked item by item.
func sampleSizeOK(data []byte, k int) bool {
	return bytes.HasPrefix(data, []byte(fmt.Sprintf(`{"size":%d,`, k))) &&
		bytes.Count(data, []byte(`"id":`)) == k
}

// warmup runs the workload's warm-up rounds and the stats refresh that
// opens the timed phase.
func (c *nodeCluster) warmup() (nodesvc.Stats, error) {
	for c.round < c.w.Warmup {
		if err := c.step(nil, nil); err != nil {
			return nodesvc.Stats{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c.refresh()
}

// timed runs the closed loop for the given duration. s0 is the refresh
// that ended warm-up; s1 closes the fixed count window; s2 is the final
// refresh, which drains the last deferred selection inside the timed
// interval.
func (c *nodeCluster) timed(s0 nodesvc.Stats, d time.Duration, tr *tracer) (*nodePhase, error) {
	ph := &nodePhase{s0: s0}
	countEnd := c.w.Warmup + c.w.CountWin
	probe := startResources()
	deadline := time.Now().Add(d)
	// A slow host extends the phase rather than cut the count window
	// short: the window's rounds are what make the counts comparable.
	for time.Now().Before(deadline) || c.round < countEnd {
		if err := c.step(ph, tr); err != nil {
			return nil, err
		}
		if c.round == countEnd {
			ph.attempted++
			st, err := c.refresh()
			if err != nil {
				return nil, fmt.Errorf("count-window refresh: %w", err)
			}
			ph.s1 = st
		}
	}
	ph.attempted++
	st, err := c.refresh()
	if err != nil {
		return nil, fmt.Errorf("final refresh: %w", err)
	}
	ph.s2 = st
	ph.res = probe.stop()
	return ph, nil
}

// checkFinal reads the final sample and checks it, and the item count,
// against the generator: every sampled item's weight must be the weight
// the stream assigns to its ID's (pe, round, i) slot, and the cluster
// must have counted exactly the items the stream generated.
func (c *nodeCluster) checkFinal(rep *report, st nodesvc.Stats) []service.WireItem {
	src, err := c.w.source(c.seed)
	if err != nil {
		rep.fail("rebuilding the source: %v", err)
		return nil
	}
	data, err := c.do(http.MethodGet, "/v1/cluster/sample", nil)
	if err != nil {
		rep.fail("final sample read: %v", err)
		return nil
	}
	var sr nodesvc.SampleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		rep.fail("decoding final sample: %v", err)
		return nil
	}
	rep.check(sr.Size == c.w.K && len(sr.Items) == c.w.K,
		"%s: final sample has %d/%d items, want k=%d", c.w.Name, sr.Size, len(sr.Items), c.w.K)
	rep.check(st.SampleSize == c.w.K, "%s: stats sample_size %d, want k=%d", c.w.Name, st.SampleSize, c.w.K)
	batches := map[[2]int]workload.Batch{}
	bad := 0
	for _, it := range sr.Items {
		pe, round, i := decodeID(it.ID)
		if pe >= c.w.P || round >= st.Rounds {
			bad++
			continue
		}
		key := [2]int{pe, round}
		b, ok := batches[key]
		if !ok {
			b = src.NextBatch(pe, round)
			batches[key] = b
		}
		if i >= b.Len() || b.At(i).W != it.W {
			bad++
		}
	}
	rep.check(bad == 0, "%s: %d sampled items do not match the generator's weight for their ID", c.w.Name, bad)
	lens, ok := src.(interface{ BatchLen(pe, round int) int })
	if !ok {
		rep.fail("%s: source %T has no BatchLen", c.w.Name, src)
		return sr.Items
	}
	var want int64
	for r := 0; r < st.Rounds; r++ {
		for pe := 0; pe < c.w.P; pe++ {
			want += int64(lens.BatchLen(pe, r))
		}
	}
	rep.check(st.ItemsProcessed == want, "%s: cluster counted %d items, the stream generated %d over %d rounds",
		c.w.Name, st.ItemsProcessed, want, st.Rounds)
	rep.check(st.Rounds == c.round, "%s: cluster ran %d rounds, the client posted %d", c.w.Name, st.Rounds, c.round)
	return sr.Items
}

// decodeID splits a scenario item ID into its (pe, round, i) slot; the
// layout is (pe<<19 | round) << 26 | i.
func decodeID(id uint64) (pe, round, i int) {
	return int(id >> 45), int((id >> 26) & (1<<19 - 1)), int(id & (1<<26 - 1))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
