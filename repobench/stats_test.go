package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, unsorted
	cases := []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 5, 5},   // rank ceil(5) = 5
		{0.9, 9, 1},   // rank 9: one sample (10) beyond
		{0.95, 10, 0}, // rank ceil(9.5) = 10
		{0, 1, 9},     // rank clamps to 1
		{1, 10, 0},
	}
	for _, c := range cases {
		v, beyond := quantile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(q=%v) = (%v, %d), want (%v, %d)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if xs[0] != 9 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("quantile(nil) = (%v, %d), want (0, 0)", v, beyond)
	}
}

// A p90 over 50 samples has only 5 samples beyond it, fewer than minTail:
// the report must flag it, while a p90 over 100 samples (10 beyond) is
// supported.
func TestTailSupport(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, beyond := quantile(mk(50), 0.9); v != 45 || beyond != 5 {
		t.Fatalf("p90 of 1..50 = (%v, %d), want (45, 5)", v, beyond)
	}
	if v, beyond := quantile(mk(100), 0.9); v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = (%v, %d), want (90, 10)", v, beyond)
	}
	r := newReport(options{})
	r.setQuantile("x_p90_ms", mk(50), 0.9)
	if _, ok := r.prov["unsupported_x_p90_ms"]; !ok {
		t.Error("p90 with 5 samples beyond was not flagged as unsupported")
	}
	if r.samples["x_p90_ms"] != 50 {
		t.Errorf("sample count = %d, want 50", r.samples["x_p90_ms"])
	}
	r.setQuantile("y_p90_ms", mk(100), 0.9)
	if _, ok := r.prov["unsupported_y_p90_ms"]; ok {
		t.Error("p90 with 10 samples beyond was flagged as unsupported")
	}
}

func TestMedianMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median/mean should be 0")
	}
}

func TestPerRoundAndRatio(t *testing.T) {
	// 1200 messages after, 200 before, over 400 rounds: 2.5 per round.
	if got := perRound(1200, 200, 400); got != 2.5 {
		t.Errorf("perRound = %v, want 2.5", got)
	}
	if got := perRound(10, 5, 0); got != 0 {
		t.Errorf("perRound over zero rounds = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio by zero = %v, want 0", got)
	}
}

func TestBucketSpans(t *testing.T) {
	rounds := []interval{{10, 20}, {30, 40}}
	spans := [][]span{
		{{start: 12, end: 15, kind: spanSend}, {start: 25, end: 26, kind: spanRecv}},             // second is between rounds
		{{start: 30, end: 38, kind: spanRecv}, {start: 35, end: 36, kind: spanRecv, ctrl: true}}, // ctrl kept apart
		{{start: 41, end: 45, kind: spanFlush}},                                                  // after the last round
	}
	b := bucketSpans(rounds, spans)
	if b[0].ns[spanSend] != 3 || b[0].count[spanSend] != 1 || b[0].ns[spanRecv] != 0 {
		t.Errorf("round 0 bucket = %+v", b[0])
	}
	if b[1].ns[spanRecv] != 8 || b[1].count[spanRecv] != 1 || b[1].ctrlNS != 1 || b[1].ctrls != 1 || b[1].ns[spanFlush] != 0 {
		t.Errorf("round 1 bucket = %+v", b[1])
	}
}

func TestDecodeID(t *testing.T) {
	id := (uint64(3)<<19|uint64(1234))<<26 | 56789
	if pe, round, i := decodeID(id); pe != 3 || round != 1234 || i != 56789 {
		t.Errorf("decodeID = (%d, %d, %d), want (3, 1234, 56789)", pe, round, i)
	}
}
