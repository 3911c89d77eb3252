package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"time"

	"reservoir"
	"reservoir/internal/service"
	"reservoir/internal/workload"
)

// Isolated replays: calls that run nested inside another layer (weight
// synthesis inside the scan, request decoding inside the HTTP handler)
// are timed here on the run's own inputs, outside the cluster. Their
// metrics are labelled isolated in the README.

// lenSink keeps the timed BatchLen calls from being optimized away.
var lenSink int

// replayRounds picks up to n round indices spread evenly over [lo, hi).
func replayRounds(lo, hi, n int) []int {
	if hi <= lo {
		return nil
	}
	span := hi - lo
	if span < n {
		n = span
	}
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*span/n
	}
	return out
}

// synthNSPerItem times workload.FillWeights over every rank's batch of
// the given rounds and returns nanoseconds per item.
func synthNSPerItem(batches []workload.Batch) float64 {
	var dst []float64
	var total time.Duration
	items := 0
	for _, b := range batches {
		n := b.Len()
		if cap(dst) < n {
			dst = make([]float64, n)
		}
		t := time.Now()
		workload.FillWeights(b, dst[:n])
		total += time.Since(t)
		items += n
	}
	return ratio(float64(total), float64(items))
}

// sourceBatches materializes the batch handles of the given rounds.
func sourceBatches(src reservoir.Source, p int, rounds []int) []workload.Batch {
	var out []workload.Batch
	for _, r := range rounds {
		for pe := 0; pe < p; pe++ {
			out = append(out, src.NextBatch(pe, r))
		}
	}
	return out
}

// arrivalUSPerRound times the arrival process (BatchLen for all ranks)
// and returns microseconds per round.
func arrivalUSPerRound(src interface{ BatchLen(pe, round int) int }, p int, rounds []int) float64 {
	if len(rounds) == 0 {
		return 0
	}
	n := 0
	t := time.Now()
	for _, r := range rounds {
		for pe := 0; pe < p; pe++ {
			n += src.BatchLen(pe, r)
		}
	}
	d := time.Since(t)
	lenSink = n
	return float64(d) / 1e3 / float64(len(rounds))
}

// compileUS times SyntheticSpec.BuildSource and returns microseconds per
// call.
func compileUS(spec service.SyntheticSpec, cfg service.RunConfig, reps int) (float64, error) {
	t := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := spec.BuildSource(cfg); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t)) / 1e3 / float64(reps), nil
}

// decodeMSPerReq times service.DecodeBody on the given request bodies,
// decoding each into a fresh value from newTarget, over reps passes.
func decodeMSPerReq(bodies [][]byte, newTarget func() any, reps int) (float64, error) {
	var total time.Duration
	n := 0
	for rep := 0; rep < reps; rep++ {
		for _, b := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(b))
			rec := httptest.NewRecorder()
			v := newTarget()
			t := time.Now()
			err := service.DecodeBody(rec, req, 256<<20, v)
			total += time.Since(t)
			if err != nil {
				return 0, err
			}
			n++
		}
	}
	return ratio(float64(total)/1e6, float64(n)), nil
}

// encodeMS times service.WriteJSON of v and returns milliseconds per call.
func encodeMS(v any, reps int) float64 {
	var total time.Duration
	for i := 0; i < reps; i++ {
		rec := httptest.NewRecorder()
		t := time.Now()
		service.WriteJSON(rec, http.StatusOK, v)
		total += time.Since(t)
	}
	return float64(total) / 1e6 / float64(reps)
}
