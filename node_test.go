package reservoir

// Tests for the Node overlap driver: under Config.Pipeline a Node runs
// each round's StartScan on its own goroutine, concurrent with the
// previous round's FinishPending collectives, double-buffering the
// candidate set. The sample must stay byte-identical to the simulated
// Cluster, which runs the same three phases strictly in order — and the
// concurrent driver must be clean under the race detector (CI runs this
// package with -race).

import (
	"sync"
	"testing"
	"time"

	"reservoir/internal/simnet"
)

// runNodes drives p Nodes SPMD over the in-process simulator's transport
// for the given rounds and returns rank 0's collected sample plus the
// accumulated phase stats.
func runNodes(t *testing.T, p, rounds int, cfg Config, src Source) ([]Item, []PhaseStats) {
	t.Helper()
	sim := simnet.NewCluster(p, simnet.DefaultCost())
	nodes := make([]*Node, p)
	for i := 0; i < p; i++ {
		n, err := NewNode(sim.PE(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for r := 0; r < rounds; r++ {
		sim.Parallel(func(pe *simnet.PE) {
			nodes[pe.ID()].ProcessRound(src)
		})
	}
	var sample []Item
	var mu sync.Mutex
	sim.Parallel(func(pe *simnet.PE) {
		s := nodes[pe.ID()].CollectSample()
		if pe.ID() == 0 {
			mu.Lock()
			sample = s
			mu.Unlock()
		}
	})
	phases := make([]PhaseStats, p)
	for i, n := range nodes {
		phases[i] = n.PhaseStats()
	}
	return sample, phases
}

// TestNodeOverlapMatchesSequentialCluster pins the tentpole determinism
// contract: the overlapped pipelined driver and the simulator's
// sequential phase order produce byte-identical samples at shards 1 and
// 4, weighted and uniform.
func TestNodeOverlapMatchesSequentialCluster(t *testing.T) {
	const p, rounds, batch = 4, 10, 1500
	for _, shards := range []int{1, 4} {
		for _, weighted := range []bool{true, false} {
			cfg := Config{K: 64, Weighted: weighted, Seed: 21, Shards: shards, Pipeline: true}
			src := UniformSource{Seed: 33, BatchLen: batch, Lo: 0, Hi: 100}

			nodeSample, phases := runNodes(t, p, rounds, cfg, src)

			cl, err := NewCluster(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				cl.ProcessRound(src)
			}
			clSample := cl.Sample()

			if len(nodeSample) != len(clSample) {
				t.Fatalf("shards=%d weighted=%v: node sample %d items vs cluster %d",
					shards, weighted, len(nodeSample), len(clSample))
			}
			for i := range nodeSample {
				if nodeSample[i] != clSample[i] {
					t.Fatalf("shards=%d weighted=%v: sample[%d] differs: node %+v vs cluster %+v",
						shards, weighted, i, nodeSample[i], clSample[i])
				}
			}
			for rank, ph := range phases {
				if ph.RoundNS <= 0 || ph.ScanNS <= 0 {
					t.Errorf("shards=%d weighted=%v rank %d: phase stats not populated: %+v",
						shards, weighted, rank, ph)
				}
			}
		}
	}
}

// TestNodePipelineRaceStress hammers the double-buffered candidate set:
// many small rounds keep a selection pending at almost every StartScan,
// so the scan goroutine and the collective goroutine run concurrently
// every round. The assertions are the race detector's (CI runs -race)
// plus basic sample invariants.
func TestNodePipelineRaceStress(t *testing.T) {
	const p, rounds, batch, k = 4, 40, 2000, 128
	cfg := Config{K: k, Weighted: true, Seed: 77, Shards: 4, Pipeline: true}
	src := ParetoSource{Seed: 78, BatchLen: batch, Shape: 1.5}
	sample, phases := runNodes(t, p, rounds, cfg, src)
	if len(sample) != k {
		t.Fatalf("sample has %d items, want k=%d", len(sample), k)
	}
	seen := make(map[uint64]bool, len(sample))
	for _, it := range sample {
		if it.W <= 0 {
			t.Fatalf("sampled item %d has non-positive weight %v", it.ID, it.W)
		}
		if seen[it.ID] {
			t.Fatalf("item %d sampled twice (without-replacement violated)", it.ID)
		}
		seen[it.ID] = true
	}
	var overlap int64
	for _, ph := range phases {
		overlap += ph.OverlapNS
	}
	if overlap <= 0 {
		t.Error("no overlapped wall time recorded across 40 pipelined rounds")
	}
}

// TestOverlapIsIntervalIntersection pins the pipelined round's overlap
// measure: the time both intervals were running, not the shorter one's
// length.
func TestOverlapIsIntervalIntersection(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		a0, a1, b0, b1 int
		want           int
	}{
		{0, 10, 5, 20, 5},  // partial: b starts inside a
		{5, 20, 0, 10, 5},  // partial: a starts inside b
		{0, 20, 5, 10, 5},  // b nested in a
		{5, 10, 0, 20, 5},  // a nested in b
		{0, 10, 10, 20, 0}, // touching
		{0, 10, 15, 20, 0}, // disjoint: a first
		{15, 20, 0, 10, 0}, // disjoint: b first
		{0, 10, 0, 10, 10}, // identical
		{3, 3, 0, 10, 0},   // empty interval
	} {
		if got := overlap(at(tc.a0), at(tc.a1), at(tc.b0), at(tc.b1)); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("overlap([%d,%d], [%d,%d]) = %v, want %dms", tc.a0, tc.a1, tc.b0, tc.b1, got, tc.want)
		}
	}
}
