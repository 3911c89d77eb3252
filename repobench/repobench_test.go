package main

import (
	"testing"

	"reservoir"
	"reservoir/internal/nodesvc"
	"reservoir/internal/service"
)

// smallSelect is a scaled-down node_select: the same preset, cluster
// shape and pipelining, small enough to run in a test.
var smallSelect = nodeWorkload{
	Name: "small_select", Preset: "uniform_poisson", BatchLen: 2000, K: 512,
	P: 4, Shards: 4, Pipeline: true,
	Warmup: 20, CountWin: 30, ReadEvery: 10,
}

const smallSeed = 42

// runSmall drives smallSelect for exactly Warmup+CountWin rounds (a zero
// duration ends the timed phase as soon as the count window closes) and
// returns the phase and the checked final sample.
func runSmall(t *testing.T, tr *tracer) (*nodePhase, *nodeCluster, []service.WireItem) {
	t.Helper()
	c, s0, err := setupNode(smallSelect, smallSeed, tr)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := c.timed(s0, 0, tr)
	if err != nil {
		c.close()
		t.Fatal(err)
	}
	rep := newReport(options{})
	sample := c.checkFinal(rep, ph.s2)
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("output checks failed: %v", rep.failures)
	}
	if ph.failed != 0 || ph.badReads != 0 {
		t.Fatalf("%d failed operations, %d bad reads", ph.failed, ph.badReads)
	}
	return ph, c, sample
}

func sameSample(t *testing.T, what string, got, want []service.WireItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// The traced run must be the same program: the Conn wrapper forwards
// every optional interface, so the sample and the traffic counts match an
// unwrapped run of the same seed.
func TestTracedConnMatchesPlain(t *testing.T) {
	plain, _, plainSample := runSmall(t, nil)
	tr := newTracer()
	traced, c, tracedSample := runSmall(t, tr)

	sameSample(t, "traced sample", tracedSample, plainSample)
	for _, s := range []struct {
		name string
		a, b nodesvc.Stats
	}{{"count window", traced.s1, plain.s1}, {"final", traced.s2, plain.s2}} {
		if s.a.Network.Messages != s.b.Network.Messages || s.a.Network.Words != s.b.Network.Words {
			t.Errorf("%s traffic: traced %+v, plain %+v", s.name, s.a.Network, s.b.Network)
		}
		// Wire bytes include frame headers, and how many small messages
		// tcpnet coalesces into one frame depends on whether a reply had
		// already arrived when a receive ran. Two unwrapped runs differ
		// by a few headers too, so bytes are held to a tight tolerance,
		// not to equality.
		if d := float64(s.a.Network.Bytes-s.b.Network.Bytes) / float64(s.b.Network.Bytes); d > 0.002 || d < -0.002 {
			t.Errorf("%s bytes: traced %d, plain %d", s.name, s.a.Network.Bytes, s.b.Network.Bytes)
		}
		if s.a.ItemsProcessed != s.b.ItemsProcessed || s.a.Selections != s.b.Selections {
			t.Errorf("%s counters: traced %+v, plain %+v", s.name, s.a, s.b)
		}
	}
	var sends, flushes int
	for _, tc := range c.traced {
		for _, s := range tc.snapshot() {
			switch s.kind {
			case spanSend:
				sends++
			case spanFlush:
				flushes++
			}
		}
	}
	if sends == 0 || flushes == 0 {
		t.Errorf("traced run recorded %d sends and %d flushes; the wrapper did not see the traffic", sends, flushes)
	}
	if len(traced.posts) != smallSelect.CountWin {
		t.Errorf("traced run recorded %d round intervals, want %d", len(traced.posts), smallSelect.CountWin)
	}
}

// The node cluster's sample must equal a simulator replay of the same
// configuration and stream, byte for byte.
func TestSimulatorReplay(t *testing.T) {
	ph, _, sample := runSmall(t, nil)
	cl, err := reservoir.NewCluster(smallSelect.P, smallSelect.config(smallSeed))
	if err != nil {
		t.Fatal(err)
	}
	src, err := smallSelect.source(smallSeed)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ph.s2.Rounds; r++ {
		cl.ProcessRound(src)
	}
	var want []service.WireItem
	for _, it := range cl.Sample() {
		want = append(want, service.WireItem{W: it.W, ID: it.ID})
	}
	sameSample(t, "simulator replay", sample, want)
}
