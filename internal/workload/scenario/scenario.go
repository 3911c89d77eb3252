// Package scenario is the realistic-workload engine: it composes the
// primitive generators of package workload into named, replayable stream
// scenarios — heavy-tailed weight laws (Zipf, Pareto, lognormal), bursty
// arrival processes (Poisson, Gamma, Weibull, on/off phases), per-PE
// heterogeneity (skewed rates across ranks, hot-key weight concentration),
// and time-varying drift of the weight scale.
//
// Every scenario is synthesized counter-based from (seed, pe, round, i):
// re-requesting any batch reproduces it bit-identically, so scenarios are
// usable everywhere the uniform synthetic stream is — service ingest, node
// mode, WAL replay, reservoir-verify -match — and stay replayable under the
// determinism analyzer. Batches are workload.SynthBatch values, generated
// in O(1) memory regardless of length.
//
// Synthesis is on the benchmarks' hot path, so it is built for speed
// without changing the stream. A Zipf law compiles once per
// (ZipfN, Alpha) into an immutable table, shared through a small bounded
// cache: the normalized CDF plus a guide index that finds a uniform's
// inverse-CDF rank in O(1) expected steps — the same rank a binary
// search returns. Every batch carries a WBulk filler, one flat loop per
// law, which the per-item W reuses over a single item. An alias table
// would draw as fast but map uniforms to different ranks, breaking the
// replay of recorded streams; see DESIGN.md §7.
//
// The statistical acceptance harness (internal/stats/accept) runs the
// samplers over these scenarios and tests the realized inclusion counts
// against theory; see DESIGN.md §7.
package scenario

import (
	"fmt"
	"math"
	"sync"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// maxBatchLen caps one PE's items per round. workload.SynthBatch IDs give
// every (pe, round) a disjoint 2^26-item range; staying well below that
// keeps IDs globally unique even under extreme burst draws.
const maxBatchLen = 1 << 20

// Spec is the JSON-serializable description of one scenario. The zero
// value of every optional field means "use the documented default", so
// specs stay terse on the wire (service ingest requests, sample dumps,
// WAL records all carry them verbatim).
type Spec struct {
	// Name labels the scenario in reports and dumps (presets fill it in).
	Name string `json:"name,omitempty"`

	// Law is the per-item weight distribution: "uniform" (default),
	// "zipf", "pareto", or "lognormal".
	Law string `json:"law,omitempty"`
	// Alpha is the tail exponent: Zipf's P[W=r] ∝ r^-Alpha over
	// {1..ZipfN} (default 1.2), or the Pareto shape (default 1.5).
	Alpha float64 `json:"alpha,omitempty"`
	// ZipfN is the Zipf support size (default 4096).
	ZipfN int `json:"zipf_n,omitempty"`
	// Mu/Sigma parameterize the lognormal law exp(Mu + Sigma·Z)
	// (defaults 0 and 1).
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Lo/Hi bound the uniform law (default (0, 100], the paper's range).
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`

	// Arrival modulates the number of items per PE per round around the
	// configured mean length: "constant" (default), "poisson", "bursty"
	// (Gamma-multiplied), "weibull", or "onoff" (square-wave phases).
	Arrival string `json:"arrival,omitempty"`
	// BurstShape is the Gamma/Weibull shape; values below 1 give highly
	// variable, bursty rounds (defaults: bursty 0.5, weibull 0.8).
	BurstShape float64 `json:"burst_shape,omitempty"`
	// OnRounds/OffRounds/OffLevel describe the on/off square wave: each
	// cycle is OnRounds at full rate then OffRounds at OffLevel×rate
	// (defaults 4, 4, 0.1). Phases are staggered by PE rank so the
	// cluster never goes fully quiet.
	OnRounds  int     `json:"on_rounds,omitempty"`
	OffRounds int     `json:"off_rounds,omitempty"`
	OffLevel  float64 `json:"off_level,omitempty"`

	// RateSkew skews arrival rates across ranks: PE r's mean length is
	// proportional to (r+1)^-RateSkew (0 = homogeneous).
	RateSkew float64 `json:"rate_skew,omitempty"`
	// HotFrac/HotBoost concentrate weight on a random HotFrac fraction
	// of items, whose weights are multiplied by HotBoost — the hot-key
	// pattern that dominates real traffic.
	HotFrac  float64 `json:"hot_frac,omitempty"`
	HotBoost float64 `json:"hot_boost,omitempty"`

	// Drift scales all weights by a round-varying factor: "none"
	// (default), "ramp" (1 + DriftRate·round), or "cycle"
	// (1 + DriftRate·sin(2π·round/DriftPeriod)).
	Drift       string  `json:"drift,omitempty"`
	DriftRate   float64 `json:"drift_rate,omitempty"`
	DriftPeriod int     `json:"drift_period,omitempty"`
}

// withDefaults returns the spec with every zero-valued optional field
// replaced by its documented default.
func (s Spec) withDefaults() Spec {
	if s.Law == "" {
		s.Law = "uniform"
	}
	if s.Alpha == 0 {
		if s.Law == "zipf" {
			s.Alpha = 1.2
		} else {
			s.Alpha = 1.5
		}
	}
	if s.ZipfN == 0 {
		s.ZipfN = 4096
	}
	if s.Sigma == 0 {
		s.Sigma = 1
	}
	if s.Lo == 0 && s.Hi == 0 {
		s.Lo, s.Hi = 0, 100
	}
	if s.Arrival == "" {
		s.Arrival = "constant"
	}
	if s.BurstShape == 0 {
		if s.Arrival == "weibull" {
			s.BurstShape = 0.8
		} else {
			s.BurstShape = 0.5
		}
	}
	if s.OnRounds == 0 {
		s.OnRounds = 4
	}
	if s.OffRounds == 0 {
		s.OffRounds = 4
	}
	if s.OffLevel == 0 {
		s.OffLevel = 0.1
	}
	if s.Drift == "" {
		s.Drift = "none"
	}
	if s.DriftPeriod == 0 {
		s.DriftPeriod = 16
	}
	return s
}

// Validate checks the spec (after applying defaults) and returns a
// descriptive error for anything the engine cannot synthesize.
func (s Spec) Validate() error {
	d := s.withDefaults()
	switch d.Law {
	case "uniform":
		if d.Hi <= d.Lo || d.Lo < 0 {
			return fmt.Errorf("scenario: uniform law needs 0 <= lo < hi, got (%g, %g]", d.Lo, d.Hi)
		}
	case "zipf":
		if d.Alpha <= 0 {
			return fmt.Errorf("scenario: zipf law needs alpha > 0, got %g", d.Alpha)
		}
		if d.ZipfN < 2 || d.ZipfN > 1<<22 {
			return fmt.Errorf("scenario: zipf_n must be in [2, %d], got %d", 1<<22, d.ZipfN)
		}
	case "pareto":
		if d.Alpha <= 0 {
			return fmt.Errorf("scenario: pareto law needs alpha > 0, got %g", d.Alpha)
		}
	case "lognormal":
		if d.Sigma < 0 {
			return fmt.Errorf("scenario: lognormal law needs sigma >= 0, got %g", d.Sigma)
		}
	default:
		return fmt.Errorf("scenario: unknown weight law %q (want uniform, zipf, pareto, or lognormal)", s.Law)
	}
	switch d.Arrival {
	case "constant", "poisson":
	case "bursty", "weibull":
		if d.BurstShape <= 0 {
			return fmt.Errorf("scenario: %s arrivals need burst_shape > 0, got %g", d.Arrival, d.BurstShape)
		}
	case "onoff":
		if d.OnRounds < 1 || d.OffRounds < 0 {
			return fmt.Errorf("scenario: onoff arrivals need on_rounds >= 1 and off_rounds >= 0, got %d/%d", d.OnRounds, d.OffRounds)
		}
		if d.OffLevel < 0 || d.OffLevel > 1 {
			return fmt.Errorf("scenario: off_level must be in [0, 1], got %g", d.OffLevel)
		}
	default:
		return fmt.Errorf("scenario: unknown arrival process %q (want constant, poisson, bursty, weibull, or onoff)", s.Arrival)
	}
	if d.RateSkew < 0 {
		return fmt.Errorf("scenario: rate_skew must be >= 0, got %g", d.RateSkew)
	}
	if d.HotFrac < 0 || d.HotFrac > 1 {
		return fmt.Errorf("scenario: hot_frac must be in [0, 1], got %g", d.HotFrac)
	}
	if d.HotFrac > 0 && d.HotBoost <= 0 {
		return fmt.Errorf("scenario: hot_frac > 0 needs hot_boost > 0, got %g", d.HotBoost)
	}
	switch d.Drift {
	case "none":
	case "ramp":
		if d.DriftRate < 0 {
			return fmt.Errorf("scenario: ramp drift needs drift_rate >= 0, got %g", d.DriftRate)
		}
	case "cycle":
		if math.Abs(d.DriftRate) >= 1 {
			return fmt.Errorf("scenario: cycle drift needs |drift_rate| < 1 (weights must stay positive), got %g", d.DriftRate)
		}
		if d.DriftPeriod < 2 {
			return fmt.Errorf("scenario: cycle drift needs drift_period >= 2, got %d", d.DriftPeriod)
		}
	default:
		return fmt.Errorf("scenario: unknown drift %q (want none, ramp, or cycle)", s.Drift)
	}
	return nil
}

// Source compiles the spec into a workload.Source whose batches derive
// deterministically from (seed, pe, round, i). meanLen is the target mean
// items per PE per round before per-PE skew and arrival modulation.
func (s Spec) Source(seed uint64, meanLen int) (*Source, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if meanLen < 1 || meanLen > maxBatchLen {
		return nil, fmt.Errorf("scenario: mean batch length must be in [1, %d], got %d", maxBatchLen, meanLen)
	}
	src := &Source{spec: s.withDefaults(), seed: seed, meanLen: meanLen}
	if src.spec.Law == "zipf" {
		src.zipf = zipfTables.get(src.spec.ZipfN, src.spec.Alpha)
	}
	return src, nil
}

// Source is a compiled scenario. It is safe for concurrent NextBatch calls
// with different pe arguments (all state is immutable after compilation).
type Source struct {
	spec    Spec
	seed    uint64
	meanLen int
	zipf    *zipfTable // shared with every source of the same law (nil unless law == "zipf")
}

// Spec returns the compiled spec with defaults applied.
func (s *Source) Spec() Spec { return s.spec }

// Domain-separation constants for the independent random substreams one
// (pe, round) consumes. Weights, hot-key marks, and arrival draws must not
// share a stream: reading one would shift the others.
const (
	domainWeight  = 0x77656967 // "weig"
	domainHot     = 0x686f746b // "hotk"
	domainArrival = 0x61727276 // "arrv"
)

// subSeed derives the seed of one substream of one (pe, round).
func (s *Source) subSeed(domain uint64, pe, round int) uint64 {
	x := s.seed ^ rng.Mix64(domain)
	x = rng.Mix64(x ^ rng.Mix64(uint64(pe)*0x9e3779b97f4a7c15+uint64(round)))
	return x
}

// idBase mirrors workload.idBase: every (pe, round) owns a disjoint
// 2^26-item ID range (globally unique for up to 2^19 PEs and 2^19 rounds).
func idBase(pe, round int) uint64 {
	return (uint64(pe)<<19 | uint64(round)) << 26
}

// NextBatch implements workload.Source. The batch is a SynthBatch: items
// are recomputed on demand from the counter streams, never stored.
func (s *Source) NextBatch(pe, round int) workload.Batch {
	g := &weights{
		src:   s,
		law:   rng.Counter{Seed: s.subSeed(domainWeight, pe, round)}.Stream(),
		hot:   rng.Counter{Seed: s.subSeed(domainHot, pe, round)}.Stream(),
		scale: s.driftScale(round),
	}
	return &workload.SynthBatch{
		N:      s.BatchLen(pe, round),
		IDBase: idBase(pe, round),
		W:      g.at,
		WBulk:  g.fill,
	}
}

// BatchLen returns the deterministic arrival draw for (pe, round): the
// number of items PE pe receives in that round. Exported so tests can
// KS-test the realized arrival process against its own law.
func (s *Source) BatchLen(pe, round int) int {
	base := float64(s.meanLen) * s.peRate(pe)
	var l float64
	switch s.spec.Arrival {
	case "constant":
		l = base
	case "poisson":
		str := rng.NewSplitMix64(s.subSeed(domainArrival, pe, round))
		l = float64(poisson(str, base))
	case "bursty":
		str := rng.NewSplitMix64(s.subSeed(domainArrival, pe, round))
		// Gamma(shape)/shape has mean 1; shape < 1 concentrates the mass
		// near 0 with a heavy upper tail — occasional huge rounds.
		l = base * gamma(str, s.spec.BurstShape) / s.spec.BurstShape
	case "weibull":
		str := rng.NewSplitMix64(s.subSeed(domainArrival, pe, round))
		// Weibull(shape) normalized by Γ(1+1/shape) has mean 1.
		l = base * weibull(str, s.spec.BurstShape) / math.Gamma(1+1/s.spec.BurstShape)
	case "onoff":
		// Square wave, phase-staggered by rank so PEs don't burst in
		// lockstep unless the stagger divides the cycle.
		cycle := s.spec.OnRounds + s.spec.OffRounds
		phase := (round + pe) % cycle
		if phase < s.spec.OnRounds {
			l = base
		} else {
			l = base * s.spec.OffLevel
		}
	}
	n := int(math.Round(l))
	if n < 0 {
		n = 0
	}
	if n > maxBatchLen {
		n = maxBatchLen
	}
	return n
}

// peRate is the per-rank arrival-rate multiplier: (pe+1)^-RateSkew. Rank 0
// is the hottest client; higher ranks tail off polynomially.
func (s *Source) peRate(pe int) float64 {
	if s.spec.RateSkew == 0 {
		return 1
	}
	return math.Pow(float64(pe+1), -s.spec.RateSkew)
}

// driftScale is the round-varying weight multiplier.
func (s *Source) driftScale(round int) float64 {
	switch s.spec.Drift {
	case "ramp":
		return 1 + s.spec.DriftRate*float64(round)
	case "cycle":
		return 1 + s.spec.DriftRate*math.Sin(2*math.Pi*float64(round)/float64(s.spec.DriftPeriod))
	default:
		return 1
	}
}

// weights synthesizes the weights of one (pe, round): the law draw from
// the weight substream, times the drift scale, times HotBoost where the
// hot-key substream draw is at most HotFrac. Item i's weight is a pure
// function of (seed, pe, round, i).
type weights struct {
	src      *Source
	law, hot rng.CounterStream
	scale    float64
}

// fill sets dst[j] to the weight of item base+j. It is the only place the
// per-law math lives: at fills a one-item slice, so W and WBulk agree bit
// for bit by construction. One flat loop per law keeps the law switch,
// the closure calls and the counter seed mix out of the per-item path.
func (g *weights) fill(base uint64, dst []float64) {
	sp, c, scale := &g.src.spec, g.law, g.scale
	switch sp.Law {
	case "uniform":
		lo, span := sp.Lo, sp.Hi-sp.Lo
		for j := range dst {
			dst[j] = (lo + c.U01At(base+uint64(j))*span) * scale
		}
	case "zipf":
		t := g.src.zipf
		for j := range dst {
			dst[j] = float64(t.rank(c.U01At(base+uint64(j)))+1) * scale
		}
	case "pareto":
		inv := -1 / sp.Alpha
		for j := range dst {
			dst[j] = math.Pow(c.U01At(base+uint64(j)), inv) * scale
		}
	case "lognormal":
		mu, sigma := sp.Mu, sp.Sigma
		for j := range dst {
			// Box-Muller from two counter draws, as workload.NormalWeight.
			i := base + uint64(j)
			z := math.Sqrt(-2*math.Log(c.U01At(2*i))) * math.Cos(2*math.Pi*c.U01At(2*i+1))
			dst[j] = math.Exp(mu+sigma*z) * scale
		}
	default:
		// Unreachable: Source() validated the law.
		panic("scenario: uncompiled weight law " + sp.Law)
	}
	if frac := sp.HotFrac; frac > 0 {
		hot, boost := g.hot, sp.HotBoost
		for j := range dst {
			if hot.U01At(base+uint64(j)) <= frac {
				dst[j] *= boost
			}
		}
	}
}

// at returns the weight of item i.
func (g *weights) at(i uint64) float64 {
	var w [1]float64
	g.fill(i, w[:])
	return w[0]
}

// zipfTable is a compiled Zipf law P[R=r] ∝ r^-alpha over r ∈ {1..n}: the
// normalized CDF, cum[r-1] = P[R <= r], and a guide index over it.
// guide[b] is the smallest r with cum[r] >= b/G, where G = len(guide)-1
// is the power of two at or above n. A uniform u in [b/G, (b+1)/G) thus
// has its inverse-CDF rank at or after guide[b], and rank walks up from
// there: 1 + n/G <= 2 expected comparisons instead of a log2(n)-step
// binary search, returning exactly the rank the binary search returns.
// Tables are immutable and shared (see tableCache).
type zipfTable struct {
	alpha   float64
	cum     []float64
	guide   []int32
	buckets float64 // G
}

func newZipfTable(n int, alpha float64) *zipfTable {
	cum := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -alpha)
		cum[r-1] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	// Guard against floating-point shortfall at the top: U01At can return
	// exactly 1, which must map to the last rank.
	cum[n-1] = 1
	g := 1
	for g < n {
		g <<= 1
	}
	guide := make([]int32, g+1)
	r := 0
	for b := range guide {
		// b/g is exact (g is a power of two), and cum[n-1] = 1 stops the
		// walk at b = g.
		for edge := float64(b) / float64(g); cum[r] < edge; {
			r++
		}
		guide[b] = int32(r)
	}
	return &zipfTable{alpha: alpha, cum: cum, guide: guide, buckets: float64(g)}
}

// rank returns the smallest r with cum[r] >= u, for u in (0, 1]: the
// index sort.SearchFloat64s(cum, u) returns. u·G is exact, so its
// truncation is the bucket b with b/G <= u.
func (t *zipfTable) rank(u float64) int {
	r := int(t.guide[int(u*t.buckets)])
	for t.cum[r] < u {
		r++
	}
	return r
}

// tableCacheSize bounds the Zipf tables kept between compilations. A
// node-mode round compiles the same spec 1 + p times and a service run
// once per request, so a few entries catch every repeat, while a table
// for ZipfN = 2^22 holds 48 MiB and specs come from clients.
const tableCacheSize = 4

// tableCache keeps the most recently compiled Zipf tables, so sources
// with the same (ZipfN, Alpha) share one table instead of each paying
// ZipfN math.Pow calls.
type tableCache struct {
	mu   sync.Mutex
	tabs []*zipfTable // most recently used first, at most tableCacheSize
}

// zipfTables is the cache Spec.Source compiles through.
var zipfTables tableCache

// get returns the table of (n, alpha), compiling it on a miss.
func (c *tableCache) get(n int, alpha float64) *zipfTable {
	c.mu.Lock()
	t := c.lookup(n, alpha)
	c.mu.Unlock()
	if t != nil {
		return t
	}
	// Compile outside the lock: a 2^22-rank table takes about half a
	// second, and other specs must not wait behind it.
	t = newZipfTable(n, alpha)
	c.mu.Lock()
	defer c.mu.Unlock()
	if won := c.lookup(n, alpha); won != nil {
		return won // a concurrent miss compiled the same table first
	}
	if len(c.tabs) < tableCacheSize {
		c.tabs = append(c.tabs, nil)
	}
	copy(c.tabs[1:], c.tabs) // the least recently used table falls off
	c.tabs[0] = t
	return t
}

// lookup returns the cached table of (n, alpha), moved to the front, or
// nil. The caller holds c.mu.
func (c *tableCache) lookup(n int, alpha float64) *zipfTable {
	for i, t := range c.tabs {
		if len(t.cum) == n && t.alpha == alpha {
			copy(c.tabs[1:i+1], c.tabs[:i])
			c.tabs[0] = t
			return t
		}
	}
	return nil
}
