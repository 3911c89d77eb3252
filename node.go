package reservoir

import (
	"fmt"
	"time"

	"reservoir/internal/coll"
	"reservoir/internal/core"
	"reservoir/internal/transport"
)

// Node is one PE of a distributed sampling cluster running over a real
// transport: where Cluster simulates all p PEs inside one process, a Node
// is a single PE whose peers live in other OS processes, connected through
// a transport.Conn (in practice internal/transport/tcpnet, wired up by
// reservoir-serve's node mode; see docs/DEPLOY.md).
//
// All sampling methods are SPMD collectives: every node of the cluster
// must call the same methods in the same order with equivalent arguments,
// or the cluster deadlocks. Each node feeds its own local mini-batch per
// round; the threshold selection runs across the real network. Given the
// same configuration and per-PE input stream, a Node cluster produces a
// sample byte-identical to the simulated Cluster (the transport
// equivalence suite pins this).
//
// A Node is not safe for concurrent use; drive it from one goroutine.
type Node struct {
	comm    *coll.Comm
	conn    transport.Conn
	sampler core.Sampler
	algo    Algorithm
	round   int
	phase   PhaseStats
}

// PhaseStats is the wall-clock per-phase breakdown of a node's round
// loop, in nanoseconds, accumulated over all rounds. ScanNS is the local
// skip scan (StartScan); CollNS is the collective side (the deferred
// selection drain plus the merge/selection of CommitScan); OverlapNS is
// the wall time the pipelined driver saved by running the two
// concurrently (the measured intersection of the scan's and the drain's
// wall-clock intervals per round); RoundNS is total
// round wall time. Only the sharded distributed sampler fills these in.
// FlushNS is the transport's accumulated coalesce-flush time (staged
// frame emission plus socket drain), reported by transports that track
// it (tcpnet); it is filled in at ClusterStats time, not per round.
type PhaseStats struct {
	ScanNS    int64
	CollNS    int64
	OverlapNS int64
	RoundNS   int64
	FlushNS   int64
}

// Add accumulates other into p.
func (p *PhaseStats) Add(other PhaseStats) {
	p.ScanNS += other.ScanNS
	p.CollNS += other.CollNS
	p.OverlapNS += other.OverlapNS
	p.RoundNS += other.RoundNS
	p.FlushNS += other.FlushNS
}

// NewNode creates this process's PE of a multi-process cluster. Every
// process must pass an identical Config (and WithAlgorithm option) or the
// collective protocol diverges.
func NewNode(conn transport.Conn, cfg Config, opts ...Option) (*Node, error) {
	o := options{algo: Distributed}
	for _, opt := range opts {
		opt(&o)
	}
	validated := cfg
	if validated.Model == (CostModel{}) {
		validated.Model = DefaultCostModel()
	}
	comm := coll.New(conn)
	n := &Node{comm: comm, conn: conn, algo: o.algo}
	var err error
	switch o.algo {
	case CentralizedGather:
		n.sampler, err = core.NewGatherPE(comm, validated)
	default:
		n.sampler, err = core.NewDistPE(comm, validated)
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Rank returns this node's rank in 0..P()-1.
func (n *Node) Rank() int { return n.comm.Rank() }

// P returns the cluster size.
func (n *Node) P() int { return n.comm.P() }

// Round returns the number of mini-batch rounds processed so far.
func (n *Node) Round() int { return n.round }

// Algorithm returns the sampler implementation the cluster runs.
func (n *Node) Algorithm() Algorithm { return n.algo }

// ProcessBatch ingests this node's mini-batch for the current round and
// runs the collective threshold update (SPMD: all nodes must call it).
// When the sampler runs the sharded scan (Config.Shards >= 1), the node
// drives the three round phases itself so that — under Config.Pipeline —
// the local scan of this round overlaps the still-in-flight selection
// collectives of the previous one. The overlap is safe and
// byte-identical to the simulator's sequential phase order because
// StartScan and FinishPending touch disjoint sampler state (DESIGN.md
// §2.6).
func (n *Node) ProcessBatch(b Batch) {
	if pe, ok := n.sampler.(*core.DistPE); ok && pe.Sharded() {
		n.processSharded(pe, b)
	} else {
		n.sampler.ProcessBatch(b)
	}
	n.round++
}

// processSharded runs one sharded round, overlapping the scan with the
// previous round's deferred selection when one is pending.
func (n *Node) processSharded(pe *core.DistPE, b Batch) {
	r0 := time.Now()
	var buf *core.ScanBuf
	if pe.Pending() {
		var s0, s1 time.Time
		done := make(chan struct{})
		go func() {
			s0 = time.Now()
			buf = pe.StartScan(b)
			s1 = time.Now()
			close(done)
		}()
		f0 := time.Now()
		pe.FinishPending()
		f1 := time.Now()
		<-done
		n.phase.ScanNS += s1.Sub(s0).Nanoseconds()
		n.phase.CollNS += f1.Sub(f0).Nanoseconds()
		n.phase.OverlapNS += overlap(s0, s1, f0, f1).Nanoseconds()
	} else {
		s0 := time.Now()
		buf = pe.StartScan(b)
		n.phase.ScanNS += time.Since(s0).Nanoseconds()
	}
	c0 := time.Now()
	pe.CommitScan(b, buf)
	n.phase.CollNS += time.Since(c0).Nanoseconds()
	n.phase.RoundNS += time.Since(r0).Nanoseconds()
}

// overlap returns how long the wall-clock intervals [a0, a1] and [b0, b1]
// intersect: zero when one ended before the other started.
func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	if b0.After(a0) {
		a0 = b0
	}
	if b1.Before(a1) {
		a1 = b1
	}
	if d := a1.Sub(a0); d > 0 {
		return d
	}
	return 0
}

// DrainPending completes a pipelined round's deferred selection
// collectives, if any (SPMD; no-op otherwise). Node-mode round
// boundaries — sample collection, state snapshots — drain first so they
// always observe a committed round; draining early never changes the
// sampling stream (DESIGN.md §2.6).
func (n *Node) DrainPending() {
	if pe, ok := n.sampler.(*core.DistPE); ok {
		pe.FinishPending()
	}
}

// Pending reports whether a pipelined round's selection is still
// deferred on this node.
func (n *Node) Pending() bool {
	pe, ok := n.sampler.(*core.DistPE)
	return ok && pe.Pending()
}

// PhaseStats returns this node's accumulated wall-clock round-phase
// breakdown (zero unless the sharded scan is active).
func (n *Node) PhaseStats() PhaseStats { return n.phase }

// ProcessRound ingests this node's next mini-batch from src (SPMD).
func (n *Node) ProcessRound(src Source) {
	n.ProcessBatch(src.NextBatch(n.Rank(), n.round))
}

// CollectSample gathers the global sample at rank 0, which receives the
// full item slice; other ranks receive nil (SPMD).
func (n *Node) CollectSample() []Item { return n.sampler.CollectSample() }

// LocalSample returns this node's part of the sample without any
// communication.
func (n *Node) LocalSample() []Item { return n.sampler.LocalSample() }

// SampleSize returns the current global sample size (agreed by all nodes
// after each round; no communication).
func (n *Node) SampleSize() int { return n.sampler.SampleSize() }

// Threshold returns the current global key threshold and whether one has
// been established (no communication).
func (n *Node) Threshold() (float64, bool) { return n.sampler.Threshold() }

// Timing returns this node's accumulated per-phase times — wall-clock
// nanoseconds on real transports.
func (n *Node) Timing() Timing { return n.sampler.Timing() }

// Counters returns this node's accumulated operation counts.
func (n *Node) Counters() Counters { return n.sampler.Counters() }

// ClockNS returns the transport's clock in nanoseconds (wall time since
// the mesh came up on tcpnet).
func (n *Node) ClockNS() float64 { return n.conn.Clock() }

// NetworkStats returns this node's own traffic counters, if the transport
// reports them (zero otherwise). See ClusterNetworkStats for the
// cluster-wide view.
func (n *Node) NetworkStats() NetworkStats {
	if s, ok := n.conn.(transport.StatsSource); ok {
		return statsFromTransport(s.Stats())
	}
	return NetworkStats{}
}

// ClusterNetworkStats sums every node's traffic counters with one
// all-reduction and returns the total on every node (SPMD).
func (n *Node) ClusterNetworkStats() NetworkStats {
	local := n.NetworkStats()
	return coll.AllReduce(n.comm, local, func(a, b NetworkStats) NetworkStats {
		return NetworkStats{
			Messages: a.Messages + b.Messages,
			Words:    a.Words + b.Words,
			Bytes:    a.Bytes + b.Bytes,
		}
	}, 3)
}

// ClusterCounters sums every node's operation counters with one
// all-reduction and returns the total on every node (SPMD).
func (n *Node) ClusterCounters() Counters {
	return coll.AllReduce(n.comm, n.sampler.Counters(), func(a, b Counters) Counters {
		a.Add(b)
		return a
	}, 6)
}

// clusterStats carries all three stat families through one all-reduction
// so a stats round costs log p latency terms once, not three times. It
// crosses the wire on stats refreshes, so it gets a codec
// (WireIDClusterStats, wire.go).
type clusterStats struct {
	Net   NetworkStats
	Ops   Counters
	Phase PhaseStats
}

// ClusterStats sums every node's traffic counters, operation counters,
// and round-phase breakdown with a single all-reduction and returns the
// totals on every node (SPMD). It is equivalent to ClusterNetworkStats +
// ClusterCounters at a third of the round-trip count; the stats
// publication uses it.
func (n *Node) ClusterStats() (NetworkStats, Counters, PhaseStats) {
	local := clusterStats{Net: n.NetworkStats(), Ops: n.sampler.Counters(), Phase: n.phase}
	if f, ok := n.conn.(interface{ FlushNS() int64 }); ok {
		local.Phase.FlushNS = f.FlushNS()
	}
	total := coll.AllReduce(n.comm, local, func(a, b clusterStats) clusterStats {
		a.Net.Messages += b.Net.Messages
		a.Net.Words += b.Net.Words
		a.Net.Bytes += b.Net.Bytes
		a.Ops.Add(b.Ops)
		a.Phase.Add(b.Phase)
		return a
	}, 14)
	return total.Net, total.Ops, total.Phase
}

// Seen returns the global number of items processed so far, as known by
// this node (no communication).
func (n *Node) Seen() int64 { return n.sampler.Seen() }

// MarshalState snapshots this node's sampler state (reservoir contents,
// thresholds, PRNG) as an opaque blob. Together with the round counter it
// is everything a crash-restarted node needs to resume bit-identically;
// internal/nodesvc persists one per round boundary.
func (n *Node) MarshalState() ([]byte, error) {
	m, ok := n.sampler.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		return nil, fmt.Errorf("reservoir: %T does not support state snapshots", n.sampler)
	}
	return m.MarshalBinary()
}

// RestoreState restores a MarshalState blob taken at the given round
// boundary on this node (same Config, same rank, same algorithm).
// Operation counters reset to zero; use RestoreCounters to reinstate
// persisted ones.
func (n *Node) RestoreState(blob []byte, round int) error {
	u, ok := n.sampler.(interface{ UnmarshalBinary([]byte) error })
	if !ok {
		return fmt.Errorf("reservoir: %T does not support state snapshots", n.sampler)
	}
	if err := u.UnmarshalBinary(blob); err != nil {
		return err
	}
	n.round = round
	return nil
}

// RestoreCounters reinstates operation counters zeroed by RestoreState.
func (n *Node) RestoreCounters(c Counters) {
	if r, ok := n.sampler.(interface{ RestoreCounters(core.Counters) }); ok {
		r.RestoreCounters(c)
	}
}

// ResetTags rewinds the node's collective tag sequence (see
// coll.Comm.Reset). Part of the cluster recovery protocol: every node
// resets in lockstep after the transport discarded the failed round's
// traffic. Outside recovery, never call this.
func (n *Node) ResetTags() { n.comm.Reset() }

// BroadcastValue distributes v from the root rank to every node of n's
// cluster and returns it on all of them (SPMD). It shares the node's
// collective tag sequence, so control planes built on it (like
// reservoir-serve's node mode, which broadcasts commands between rounds)
// stay in lockstep with the sampling collectives. words is v's size in
// 8-byte machine words under the cost model.
func BroadcastValue[T any](n *Node, root int, v T, words int) T {
	if root < 0 || root >= n.P() {
		panic(fmt.Sprintf("reservoir: broadcast root %d outside cluster of %d", root, n.P()))
	}
	return coll.Broadcast(n.comm, root, v, words)
}
