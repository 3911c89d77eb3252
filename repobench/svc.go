package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"reservoir/internal/metrics"
	"reservoir/internal/service"
	"reservoir/internal/store"
)

// svcWorkload is the single-process service workload: one cluster run on
// simnet behind the HTTP API, persisted by a store.
type svcWorkload struct {
	Name     string  `json:"name"`
	P        int     `json:"p"`
	K        int     `json:"k"`
	PerPE    int     `json:"items_per_pe_post"`
	Bodies   int     `json:"distinct_bodies"`
	Warmup   int     `json:"warmup_rounds"`
	CountWin int     `json:"count_window_rounds"`
	ReadRate float64 `json:"reads_per_s"`
}

// svcEnv is a running service with its store, listener and clients.
type svcEnv struct {
	w      svcWorkload
	dir    string
	st     *store.Store
	reg    *metrics.Registry
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	runURL string
	wc, rc *http.Client // writer and reader, one connection each

	bodies [][]byte
	posted map[uint64]float64
	round  int
	last   service.Stats // stats returned by the latest write
}

// startSvc opens a store in a fresh directory under workdir, serves the
// API on a loopback port, creates the run and pre-encodes the bodies.
func startSvc(w svcWorkload, seed uint64, workdir string) (*svcEnv, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "svc-")
	if err != nil {
		return nil, err
	}
	e := &svcEnv{w: w, dir: dir, reg: metrics.NewRegistry(), served: make(chan error, 1)}
	if e.st, err = store.Open(dir, store.WithMetrics(e.reg)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.srv = service.New(service.WithStore(e.st), service.WithMetrics(e.reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		e.st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.wc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}
	e.rc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}

	cfg, _ := json.Marshal(service.RunConfig{Kind: service.KindCluster, P: w.P, K: w.K, Seed: seed})
	data, err := do(e.wc, http.MethodPost, e.base+"/v1/runs", cfg)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("creating run: %w", err)
	}
	var cr service.CreateResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		e.close()
		return nil, err
	}
	e.runURL = e.base + "/v1/runs/" + cr.ID
	if err := e.encodeBodies(seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// encodeBodies builds the writer's distinct explicit-batch bodies:
// uniform weights in (0, 100], IDs unique across all bodies. The writer
// cycles through them, so an ID recurs every Bodies rounds with the same
// weight.
func (e *svcEnv) encodeBodies(seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 0x737663)) // "svc"
	e.posted = make(map[uint64]float64, e.w.Bodies*e.w.P*e.w.PerPE)
	id := uint64(1)
	for b := 0; b < e.w.Bodies; b++ {
		req := service.IngestRequest{Batches: make([][]service.WireItem, e.w.P)}
		for pe := range req.Batches {
			items := make([]service.WireItem, e.w.PerPE)
			for i := range items {
				w := 100 * (1 - r.Float64()) // (0, 100]
				items[i] = service.WireItem{W: w, ID: id}
				e.posted[id] = w
				id++
			}
			req.Batches[pe] = items
		}
		data, err := json.Marshal(req)
		if err != nil {
			return err
		}
		e.bodies = append(e.bodies, data)
	}
	return nil
}

// write posts the next body and waits for its round to complete.
func (e *svcEnv) write() (time.Duration, error) {
	body := e.bodies[e.round%len(e.bodies)]
	start := time.Now()
	data, err := do(e.wc, http.MethodPost, e.runURL+"/batches?wait=true", body)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	e.round++
	// A fresh value each time: Stats holds pointers, and decoding into
	// the previous value would overwrite the snapshots already taken.
	var st service.Stats
	err = json.Unmarshal(data, &st)
	e.last = st
	return lat, err
}

// read fetches the sample and checks it: k items, every (id, w) pair one
// the writer posted.
func (e *svcEnv) read() (service.SampleResponse, error) {
	var sr service.SampleResponse
	data, err := do(e.rc, http.MethodGet, e.runURL+"/sample", nil)
	if err != nil {
		return sr, err
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return sr, err
	}
	if sr.Count != e.w.K || len(sr.Items) != e.w.K {
		return sr, fmt.Errorf("%w: sample has %d/%d items, want k=%d", errCheck, sr.Count, len(sr.Items), e.w.K)
	}
	for _, it := range sr.Items {
		if w, ok := e.posted[it.ID]; !ok || w != it.W {
			return sr, fmt.Errorf("%w: sampled (id=%d, w=%v) was never posted", errCheck, it.ID, it.W)
		}
	}
	return sr, nil
}

// errCheck marks a reply that arrived but failed an output check.
var errCheck = errors.New("output check failed")

// warmup runs the warm-up writes, reading the sample every tenth round so
// the read path is warm too.
func (e *svcEnv) warmup() error {
	for e.round < e.w.Warmup {
		if _, err := e.write(); err != nil {
			return fmt.Errorf("warm-up write: %w", err)
		}
		if e.round%10 == 0 {
			if _, err := e.read(); err != nil {
				return fmt.Errorf("warm-up read: %w", err)
			}
		}
	}
	return nil
}

// maxWriteFails stops a timed phase whose writes keep failing instead of
// waiting forever for a count window that cannot close.
const maxWriteFails = 100

// svcPhase is what one timed phase observed.
type svcPhase struct {
	writeMS, readMS, lateMS []float64
	attempted, failed       int
	badReads                int
	s0, s1, s2              service.Stats
	m0, m1                  map[string]*metrics.Family
	res                     resources
}

// timed runs the closed-loop writer and the open-loop reader together for
// d. The reader's gaps are exponential with mean 1/ReadRate, drawn from
// seed; each read is timed from its due time, so a stalled read also
// delays the ones queued behind it.
func (e *svcEnv) timed(seed uint64, d time.Duration) (*svcPhase, error) {
	ph := &svcPhase{s0: e.last}
	var err error
	if ph.m0, err = metrics.Parse(e.reg.Expose()); err != nil {
		return nil, err
	}
	countEnd := e.w.Warmup + e.w.CountWin
	probe := startResources()
	start := time.Now()
	deadline := start.Add(d)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gaps := rand.New(rand.NewPCG(seed, 0x7265616465)) // "reader"
		due := start
		for {
			due = due.Add(time.Duration(gaps.ExpFloat64() / e.w.ReadRate * 1e9))
			if due.After(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			ph.lateMS = append(ph.lateMS, ms(time.Since(due)))
			ph.attempted++
			_, err := e.read()
			switch {
			case errors.Is(err, errCheck):
				ph.badReads++
				ph.failed++
			case err != nil:
				ph.failed++
			default:
				ph.readMS = append(ph.readMS, ms(time.Since(due)))
			}
		}
	}()
	var writes []float64
	writeAttempts, writeFails := 0, 0
	// As in the node workloads, a slow host extends the writer past the
	// deadline until the count window has closed.
	for (time.Now().Before(deadline) || e.round < countEnd) && writeFails < maxWriteFails {
		writeAttempts++
		lat, err := e.write()
		if err != nil {
			writeFails++
			continue
		}
		writes = append(writes, ms(lat))
		if e.round == countEnd {
			ph.s1 = e.last
		}
	}
	wg.Wait()
	ph.writeMS = writes
	ph.attempted += writeAttempts
	ph.failed += writeFails
	data, err := do(e.wc, http.MethodGet, e.runURL+"/stats", nil)
	if err == nil {
		err = json.Unmarshal(data, &ph.s2)
	}
	ph.res = probe.stop()
	if err != nil {
		return nil, fmt.Errorf("final stats: %w", err)
	}
	if ph.m1, err = metrics.Parse(e.reg.Expose()); err != nil {
		return nil, err
	}
	return ph, nil
}

// checkFinal checks the final sample and the item count, and returns
// the sample.
func (e *svcEnv) checkFinal(rep *report, st service.Stats) service.SampleResponse {
	sr, err := e.read()
	if err != nil {
		rep.fail("%s: final sample: %v", e.w.Name, err)
	}
	rep.check(st.SampleSize == e.w.K, "%s: stats sample_size %d, want k=%d", e.w.Name, st.SampleSize, e.w.K)
	rep.check(st.Rounds == e.round, "%s: run completed %d rounds, the writer got %d acknowledgements", e.w.Name, st.Rounds, e.round)
	want := int64(e.round) * int64(e.w.P*e.w.PerPE)
	rep.check(st.ItemsProcessed == want, "%s: run counted %d items, the writer posted %d", e.w.Name, st.ItemsProcessed, want)
	return sr
}

// close stops the service, closes the store and removes its directory.
func (e *svcEnv) close() error {
	e.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.wc.CloseIdleConnections()
	e.rc.CloseIdleConnections()
	err = errors.Join(err, e.st.Close())
	return errors.Join(err, os.RemoveAll(e.dir))
}

// histMean returns the mean of a histogram family's observations made
// between two scrapes (sum delta over count delta).
func histMean(m0, m1 map[string]*metrics.Family, name string) float64 {
	s0, c0 := histSums(m0[name])
	s1, c1 := histSums(m1[name])
	return ratio(s1-s0, c1-c0)
}

func histSums(f *metrics.Family) (sum, count float64) {
	if f == nil {
		return 0, 0
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_sum":
			sum += s.Value
		case f.Name + "_count":
			count += s.Value
		}
	}
	return sum, count
}

// counterDelta returns the growth of a counter family between scrapes.
func counterDelta(m0, m1 map[string]*metrics.Family, name string) float64 {
	total := func(f *metrics.Family) float64 {
		if f == nil {
			return 0
		}
		v := 0.0
		for _, s := range f.Samples {
			v += s.Value
		}
		return v
	}
	return total(m1[name]) - total(m0[name])
}

// do issues one request and returns the body of a 2xx reply.
func do(hc *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}
