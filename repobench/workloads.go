package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"reservoir"
	"reservoir/internal/nodesvc"
	"reservoir/internal/service"
	"reservoir/internal/workload"
)

// setupNode starts a cluster and warms it up; the cluster is closed again
// if warm-up fails.
func setupNode(w nodeWorkload, seed uint64, tr *tracer) (*nodeCluster, nodesvc.Stats, error) {
	c, err := startNodeCluster(w, seed, tr)
	if err != nil {
		return nil, nodesvc.Stats{}, err
	}
	s0, err := c.warmup()
	if err != nil {
		c.close()
		return nil, s0, err
	}
	return c, s0, nil
}

// nodeInstance sets up one cluster for seed, runs one timed phase of d,
// checks its output and shuts it down. It returns the phase, the closed
// cluster (its traced spans stay readable), the final sample and the
// set-up time in seconds.
func nodeInstance(w nodeWorkload, seed uint64, d time.Duration, tr *tracer, rep *report) (*nodePhase, *nodeCluster, []service.WireItem, float64, error) {
	start := time.Now()
	c, s0, err := setupNode(w, seed, tr)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	setupS := time.Since(start).Seconds()
	ph, err := c.timed(s0, d, tr)
	if err != nil {
		c.close()
		return nil, nil, nil, 0, err
	}
	sample := c.checkFinal(rep, ph.s2)
	if err := c.close(); err != nil {
		return nil, nil, nil, 0, err
	}
	rep.attempted += ph.attempted
	rep.failed += ph.failed + ph.badReads
	rep.check(ph.badReads == 0, "%s: %d inline sample reads did not hold k=%d items", w.Name, ph.badReads, w.K)
	return ph, c, sample, setupS, nil
}

func itemsPerS(items int64, res resources) float64 {
	return ratio(float64(items), res.wall.Seconds())
}

// noteOversubscribed records in the provenance when the workload's p
// ranks outnumber the CPUs.
func noteOversubscribed(p int, rep *report) {
	if p > runtime.NumCPU() {
		rep.prov["note"] = fmt.Sprintf("p=%d ranks share %d CPUs; count metrics do not depend on the scheduler", p, runtime.NumCPU())
	}
}

func runNode(w nodeWorkload, opt options, rep *report) error {
	noteOversubscribed(w.P, rep)
	if opt.trace {
		return traceNode(w, opt, rep)
	}
	var insts []instance
	for i := 0; i < instances; i++ {
		seed := instanceSeed(opt.seed, i)
		ph, _, _, setupS, err := nodeInstance(w, seed, opt.seconds/instances, nil, rep)
		if err != nil {
			return err
		}
		s0, s1, n := ph.s0.Network, ph.s1.Network, w.CountWin
		insts = append(insts, instance{
			seed: seed, setupS: setupS, res: ph.res, roundMS: ph.roundMS, readMS: ph.readMS,
			items: ph.s2.ItemsProcessed - ph.s0.ItemsProcessed,
			msgs:  perRound(s1.Messages, s0.Messages, n),
			words: perRound(s1.Words, s0.Words, n),
			bytes: perRound(s1.Bytes, s0.Bytes, n),
		})
	}
	rep.endToEnd(insts)
	return nil
}

// roundRequest mirrors the body nodesvc decodes for POST /v1/cluster/rounds.
type roundRequest struct {
	Synthetic  *service.SyntheticSpec `json:"synthetic"`
	DeferStats bool                   `json:"defer_stats,omitempty"`
}

// traceNode runs an untraced phase (the reference for the tracing
// overhead) and a traced phase whose transport calls are wrapped, then
// replays the nested calls in isolation and assembles the layer ledger.
func traceNode(w nodeWorkload, opt options, rep *report) error {
	ref, _, _, _, err := nodeInstance(w, opt.seed, opt.seconds/2, nil, rep)
	if err != nil {
		return err
	}
	tr := newTracer()
	ph, c, sample, _, err := nodeInstance(w, opt.seed, opt.seconds/2, tr, rep)
	if err != nil {
		return err
	}
	spans := make([][]span, len(c.traced))
	for i, tc := range c.traced {
		spans[i] = tc.snapshot()
	}
	buckets := bucketSpans(ph.posts, spans)

	s0, s2 := ph.s0, ph.s2
	rounds := float64(s2.Rounds - s0.Rounds)
	items := float64(s2.ItemsProcessed - s0.ItemsProcessed)
	p := float64(w.P)
	scan := float64(s2.ScanNS - s0.ScanNS)
	coll := float64(s2.CollNS - s0.CollNS)
	overlap := float64(s2.OverlapNS - s0.OverlapNS)
	nodeRound := float64(s2.RoundNS - s0.RoundNS)
	var tns [numSpanKinds]float64
	for _, b := range buckets {
		for k := range tns {
			tns[k] += float64(b.ns[k])
		}
	}
	posts := float64(len(ph.posts))
	// perNode converts a cluster-wide nanosecond total over n rounds into
	// the mean per node and round.
	perNode := func(ns, n float64) float64 { return ratio(ns, p*n) }

	src, err := w.source(opt.seed)
	if err != nil {
		return err
	}
	lens, ok := src.(interface{ BatchLen(pe, round int) int })
	if !ok {
		return fmt.Errorf("source %T has no BatchLen", src)
	}
	replay := replayRounds(s0.Rounds, s2.Rounds, 64)
	synth := synthNSPerItem(sourceBatches(src, w.P, replay))
	arrival := arrivalUSPerRound(lens, w.P, replay)
	spec, err := w.spec()
	if err != nil {
		return err
	}
	compile, err := compileUS(spec, service.RunConfig{Seed: opt.seed}, 200)
	if err != nil {
		return err
	}
	decode, err := decodeMSPerReq([][]byte{c.body}, func() any { return new(roundRequest) }, 2000)
	if err != nil {
		return err
	}
	encode := encodeMS(nodesvc.SampleResponse{Size: len(sample), Items: sample}, 20)

	meanRound := mean(ph.roundMS)
	transportNS := tns[spanSend] + tns[spanRecv] + tns[spanFlush]
	rep.set("workload.synth_ns_per_item", "ns", synth)
	rep.set("workload.arrival_us_per_round", "us", arrival)
	rep.set("workload.compile_us", "us", compile)
	rep.set("nodesvc.cmd_overhead_ms", "ms", meanRound-perNode(nodeRound, rounds)/1e6)
	rep.set("core.scan_ms_per_round", "ms", perNode(scan, rounds)/1e6)
	rep.set("core.scan_self_ns_per_item", "ns", ratio(scan, items)-synth)
	rep.set("core.coll_ms_per_round", "ms", perNode(coll, rounds)/1e6)
	rep.set("core.overlap_pct", "%", 100*ratio(overlap, nodeRound))
	rep.set("core.candidates_per_item", "ratio", ratio(float64(s2.Inserted-s0.Inserted), items))
	rep.set("distsel.levels_per_selection", "ratio",
		ratio(float64(s2.SelectionRounds-s0.SelectionRounds), float64(s2.Selections-s0.Selections)))
	rep.set("distsel.self_ms_per_round", "ms", (perNode(coll, rounds)-perNode(transportNS, posts))/1e6)
	rep.set("transport.send_us_per_round", "us", perNode(tns[spanSend], posts)/1e3)
	rep.set("transport.recv_wait_ms_per_round", "ms", perNode(tns[spanRecv], posts)/1e6)
	rep.set("transport.flush_us_per_round", "us", perNode(tns[spanFlush], posts)/1e3)
	rep.set("transport.bytes_per_msg", "B",
		ratio(float64(s2.Network.Bytes-s0.Network.Bytes), float64(s2.Network.Messages-s0.Network.Messages)))
	rep.set("service.decode_ms_per_req", "ms", decode)
	rep.set("service.sample_encode_ms", "ms", encode)
	rep.runtimeLayer(int64(items), ph.res)
	rep.setQuantile("loadgen.round_p90_ms", ph.roundMS, 0.9)
	rep.setQuantile("loadgen.read_p90_ms", ph.readMS, 0.9)
	// The blocking path of one round on rank 0: decode the POST, build the
	// source twice (handler validation, then execution), draw the rank's
	// arrival, and run the node round (scan and collectives, less the
	// part the pipeline overlapped).
	covered := decode + 2*compile/1e3 + arrival/1e3/p + perNode(scan+coll-overlap, rounds)/1e6
	rep.set("ledger.residual_pct", "%", 100*ratio(meanRound-covered, meanRound))
	untraced := itemsPerS(ref.s2.ItemsProcessed-ref.s0.ItemsProcessed, ref.res)
	rep.set("ledger.trace_overhead_pct", "%", 100*ratio(untraced-itemsPerS(int64(items), ph.res), untraced))
	rep.absent("service.round_ms_mean", "store.append_us_mean", "store.fsync_ms_mean",
		"store.wal_bytes_per_round", "store.checkpoints_per_1k_rounds", "loadgen.read_late_p90_ms")
	rep.checkLayerSet()

	type roundRecord struct {
		StartNS int64 `json:"start_ns"`
		EndNS   int64 `json:"end_ns"`
		SendNS  int64 `json:"send_ns"`
		RecvNS  int64 `json:"recv_ns"`
		FlushNS int64 `json:"flush_ns"`
		CtrlNS  int64 `json:"ctrl_ns"`
		Sends   int64 `json:"sends"`
		Recvs   int64 `json:"recvs"`
		Flushes int64 `json:"flushes"`
		Ctrls   int64 `json:"ctrls"`
	}
	recs := make([]roundRecord, len(buckets))
	for i, b := range buckets {
		recs[i] = roundRecord{
			StartNS: ph.posts[i].start, EndNS: ph.posts[i].end,
			SendNS: b.ns[spanSend], RecvNS: b.ns[spanRecv], FlushNS: b.ns[spanFlush],
			Sends: b.count[spanSend], Recvs: b.count[spanRecv], Flushes: b.count[spanFlush],
			CtrlNS: b.ctrlNS, Ctrls: b.ctrls,
		}
	}
	path, err := writeTrace(opt.workdir, w.Name, opt.seed, map[string]any{"workload": w.Name, "seed": opt.seed, "rounds": recs})
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.prov["trace_file"] = path
	return nil
}

// svcInstance sets up one service for seed, runs one timed phase of d
// and checks its output. It returns the phase, the still-open
// environment, the final sample and the set-up time in seconds.
func svcInstance(w svcWorkload, seed uint64, d time.Duration, opt options, rep *report) (*svcPhase, *svcEnv, service.SampleResponse, float64, error) {
	var sr service.SampleResponse
	start := time.Now()
	e, err := startSvc(w, seed, opt.workdir)
	if err != nil {
		return nil, nil, sr, 0, err
	}
	if err := e.warmup(); err != nil {
		e.close()
		return nil, nil, sr, 0, err
	}
	setupS := time.Since(start).Seconds()
	ph, err := e.timed(seed, d)
	if err != nil {
		e.close()
		return nil, nil, sr, 0, err
	}
	sr = e.checkFinal(rep, ph.s2)
	rep.attempted += ph.attempted
	rep.failed += ph.failed
	rep.check(ph.badReads == 0, "%s: %d sample reads failed their output check", w.Name, ph.badReads)
	return ph, e, sr, setupS, nil
}

func runSvc(w svcWorkload, opt options, rep *report) error {
	noteOversubscribed(w.P, rep)
	if opt.trace {
		return traceSvc(w, opt, rep)
	}
	var insts []instance
	for i := 0; i < instances; i++ {
		seed := instanceSeed(opt.seed, i)
		ph, e, _, setupS, err := svcInstance(w, seed, opt.seconds/instances, opt, rep)
		if err != nil {
			return err
		}
		if err := e.close(); err != nil {
			return err
		}
		n0, n1, n := netStats(ph.s0), netStats(ph.s1), w.CountWin
		insts = append(insts, instance{
			seed: seed, setupS: setupS, res: ph.res, roundMS: ph.writeMS, readMS: ph.readMS,
			items: ph.s2.ItemsProcessed - ph.s0.ItemsProcessed,
			msgs:  perRound(n1.Messages, n0.Messages, n),
			words: perRound(n1.Words, n0.Words, n),
			bytes: perRound(n1.Bytes, n0.Bytes, n),
		})
	}
	rep.endToEnd(insts)
	return nil
}

func netStats(st service.Stats) service.NetworkStats {
	if st.Network == nil {
		return service.NetworkStats{}
	}
	return *st.Network
}

// traceSvc runs an untraced reference phase and a traced phase, reads the
// service and store layers from the shared metrics registry, and replays
// decode, weight materialization and sample encoding in isolation.
func traceSvc(w svcWorkload, opt options, rep *report) error {
	ref, e, _, _, err := svcInstance(w, opt.seed, opt.seconds/2, opt, rep)
	if err != nil {
		return err
	}
	if err := e.close(); err != nil {
		return err
	}
	ph, e, sr, _, err := svcInstance(w, opt.seed, opt.seconds/2, opt, rep)
	if err != nil {
		return err
	}
	defer e.close()

	decode, err := decodeMSPerReq(e.bodies, func() any { return new(service.IngestRequest) }, 2)
	if err != nil {
		return err
	}
	var batches []workload.Batch
	for _, b := range e.bodies {
		var req service.IngestRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return err
		}
		for _, pe := range req.Batches {
			sb := make(reservoir.SliceBatch, len(pe))
			for i, it := range pe {
				sb[i] = reservoir.Item{W: it.W, ID: it.ID}
			}
			batches = append(batches, sb)
		}
	}
	synth := synthNSPerItem(batches)
	encode := encodeMS(sr, 50)

	s0, s2 := ph.s0, ph.s2
	rounds := float64(s2.Rounds - s0.Rounds)
	items := float64(s2.ItemsProcessed - s0.ItemsProcessed)
	n0, n2 := netStats(s0), netStats(s2)
	roundMS := histMean(ph.m0, ph.m1, "reservoir_round_duration_seconds") * 1e3
	rep.set("workload.synth_ns_per_item", "ns", synth)
	rep.set("core.candidates_per_item", "ratio", ratio(float64(s2.Inserted-s0.Inserted), items))
	rep.set("distsel.levels_per_selection", "ratio",
		ratio(float64(s2.SelectionDepth-s0.SelectionDepth), float64(s2.Selections-s0.Selections)))
	rep.set("transport.bytes_per_msg", "B", ratio(float64(n2.Bytes-n0.Bytes), float64(n2.Messages-n0.Messages)))
	rep.set("service.decode_ms_per_req", "ms", decode)
	rep.set("service.round_ms_mean", "ms", roundMS)
	rep.set("service.sample_encode_ms", "ms", encode)
	rep.set("store.append_us_mean", "us", histMean(ph.m0, ph.m1, "reservoir_store_wal_append_seconds")*1e6)
	rep.set("store.fsync_ms_mean", "ms", histMean(ph.m0, ph.m1, "reservoir_store_wal_fsync_seconds")*1e3)
	rep.set("store.wal_bytes_per_round", "B", ratio(counterDelta(ph.m0, ph.m1, "reservoir_store_wal_bytes_total"), rounds))
	rep.set("store.checkpoints_per_1k_rounds", "count", 1000*ratio(counterDelta(ph.m0, ph.m1, "reservoir_store_checkpoints_total"), rounds))
	rep.runtimeLayer(int64(items), ph.res)
	rep.setQuantile("loadgen.round_p90_ms", ph.writeMS, 0.9)
	rep.setQuantile("loadgen.read_p90_ms", ph.readMS, 0.9)
	rep.setQuantile("loadgen.read_late_p90_ms", ph.lateMS, 0.9)
	// A write's blocking path: decode the body, then the worker's round
	// (sampler plus WAL append, as the round histogram times it).
	meanWrite := mean(ph.writeMS)
	rep.set("ledger.residual_pct", "%", 100*ratio(meanWrite-decode-roundMS, meanWrite))
	untraced := itemsPerS(ref.s2.ItemsProcessed-ref.s0.ItemsProcessed, ref.res)
	rep.set("ledger.trace_overhead_pct", "%", 100*ratio(untraced-itemsPerS(int64(items), ph.res), untraced))
	rep.absent("workload.arrival_us_per_round", "workload.compile_us", "nodesvc.cmd_overhead_ms",
		"core.scan_ms_per_round", "core.scan_self_ns_per_item", "core.coll_ms_per_round", "core.overlap_pct",
		"distsel.self_ms_per_round", "transport.send_us_per_round", "transport.recv_wait_ms_per_round",
		"transport.flush_us_per_round")
	rep.checkLayerSet()

	path, err := writeTrace(opt.workdir, w.Name, opt.seed, map[string]any{
		"workload": w.Name, "seed": opt.seed,
		"write_ms": ph.writeMS, "read_ms": ph.readMS, "read_late_ms": ph.lateMS,
	})
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.prov["trace_file"] = path
	return nil
}
