package main

import (
	"reflect"
	"sort"
	"sync"
	"time"

	"reservoir/internal/transport"
)

// Span kinds recorded by tracedConn.
const (
	spanSend = iota
	spanRecv
	spanFlush
	numSpanKinds
)

// span is one wrapped transport call: start and end in nanoseconds since
// the tracer's epoch. ctrl marks nodesvc's command broadcast, which is
// control-plane traffic (a follower's Recv of the next command waits for
// rank 0's HTTP handling), not part of a round's collectives.
type span struct {
	start, end int64
	kind       uint8
	ctrl       bool
}

// isCommand reports whether a transport payload is nodesvc's control
// command.
func isCommand(v any) bool {
	t := reflect.TypeOf(v)
	return t != nil && t.Name() == "command" && t.PkgPath() == "reservoir/internal/nodesvc"
}

// tracer owns the clock all spans of one traced run share, so transport
// spans and client round intervals can be compared directly.
type tracer struct {
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// tracedConn wraps one node's transport.Conn and records a span per Send,
// Recv and Flush. It forwards the optional interfaces nodesvc and the
// sampler probe for (transport.Flusher, transport.StatsSource, FlushNS,
// FaultTolerant), so the traced cluster runs the same code paths as an
// unwrapped one: without Flush the collectives would stop batching, and
// without Stats and FlushNS the counters would read zero.
type tracedConn struct {
	inner transport.Conn
	tr    *tracer

	mu    sync.Mutex
	spans []span
}

func (c *tracedConn) record(kind uint8, start int64, ctrl bool) {
	end := c.tr.now()
	c.mu.Lock()
	c.spans = append(c.spans, span{start: start, end: end, kind: kind, ctrl: ctrl})
	c.mu.Unlock()
}

// ID implements transport.Conn.
func (c *tracedConn) ID() int { return c.inner.ID() }

// P implements transport.Conn.
func (c *tracedConn) P() int { return c.inner.P() }

// Send implements transport.Conn.
func (c *tracedConn) Send(to, tag int, payload any, words int) {
	t0 := c.tr.now()
	c.inner.Send(to, tag, payload, words)
	c.record(spanSend, t0, isCommand(payload))
}

// Recv implements transport.Conn. The span covers the whole call, which
// on tcpnet includes the flush it runs before blocking.
func (c *tracedConn) Recv(from, tag int) any {
	t0 := c.tr.now()
	v := c.inner.Recv(from, tag)
	c.record(spanRecv, t0, isCommand(v))
	return v
}

// Work implements transport.Conn.
func (c *tracedConn) Work(ns float64) { c.inner.Work(ns) }

// Clock implements transport.Conn.
func (c *tracedConn) Clock() float64 { return c.inner.Clock() }

// Flush implements transport.Flusher.
func (c *tracedConn) Flush() {
	t0 := c.tr.now()
	transport.FlushConn(c.inner)
	c.record(spanFlush, t0, false)
}

// Stats implements transport.StatsSource.
func (c *tracedConn) Stats() transport.Stats {
	if s, ok := c.inner.(transport.StatsSource); ok {
		return s.Stats()
	}
	return transport.Stats{}
}

// FlushNS forwards the transport's accumulated flush time.
func (c *tracedConn) FlushNS() int64 {
	if f, ok := c.inner.(interface{ FlushNS() int64 }); ok {
		return f.FlushNS()
	}
	return 0
}

// FaultTolerant forwards the transport's fault mode.
func (c *tracedConn) FaultTolerant() bool {
	if f, ok := c.inner.(interface{ FaultTolerant() bool }); ok {
		return f.FaultTolerant()
	}
	return false
}

// snapshot returns a copy of the spans recorded so far.
func (c *tracedConn) snapshot() []span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]span(nil), c.spans...)
}

// interval is one client request, in tracer nanoseconds.
type interval struct{ start, end int64 }

// roundBucket holds one round's transport time, summed over all ranks:
// data-plane spans by kind, control-plane spans apart.
type roundBucket struct {
	ns     [numSpanKinds]int64
	count  [numSpanKinds]int64
	ctrlNS int64
	ctrls  int64
}

// bucketSpans assigns every span to the round whose POST interval
// contains its start. Spans outside every interval (sample reads, stats
// refreshes, warm-up) are left out. rounds must be sorted and disjoint,
// which a closed loop on one connection guarantees.
func bucketSpans(rounds []interval, spans [][]span) []roundBucket {
	out := make([]roundBucket, len(rounds))
	for _, rank := range spans {
		for _, s := range rank {
			i := sort.Search(len(rounds), func(i int) bool { return rounds[i].end >= s.start })
			if i == len(rounds) || rounds[i].start > s.start {
				continue
			}
			if s.ctrl {
				out[i].ctrlNS += s.end - s.start
				out[i].ctrls++
				continue
			}
			out[i].ns[s.kind] += s.end - s.start
			out[i].count[s.kind]++
		}
	}
	return out
}
