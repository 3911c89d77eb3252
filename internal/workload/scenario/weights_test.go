package scenario

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// legacyZipfCDF is the normalized Zipf CDF as every source once rebuilt it
// on compilation; the compiled tables must hold exactly these values.
func legacyZipfCDF(n int, alpha float64) []float64 {
	cum := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -alpha)
		cum[r-1] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	cum[n-1] = 1
	return cum
}

// legacyWeight is the reference per-item weight chain: a fresh counter per
// draw, a binary search of the Zipf CDF, then the drift scale and the
// hot-key boost, in that order. Every replayed stream (WAL specs,
// reservoir-verify -match dumps) was written by this definition.
func legacyWeight(s *Source, cum []float64, pe, round int, i uint64) float64 {
	sp := s.spec
	c := rng.Counter{Seed: s.subSeed(domainWeight, pe, round)}
	var w float64
	switch sp.Law {
	case "uniform":
		w = sp.Lo + c.U01At(i)*(sp.Hi-sp.Lo)
	case "zipf":
		w = float64(sort.SearchFloat64s(cum, c.U01At(i)) + 1)
	case "pareto":
		w = math.Pow(c.U01At(i), -1/sp.Alpha)
	case "lognormal":
		z := math.Sqrt(-2*math.Log(c.U01At(2*i))) * math.Cos(2*math.Pi*c.U01At(2*i+1))
		w = math.Exp(sp.Mu + sp.Sigma*z)
	}
	w *= s.driftScale(round)
	hot := rng.Counter{Seed: s.subSeed(domainHot, pe, round)}
	if sp.HotFrac > 0 && hot.U01At(i) <= sp.HotFrac {
		w *= sp.HotBoost
	}
	return w
}

// equivalenceSpecs is every preset plus each law with hot keys and drift
// independently on and off.
func equivalenceSpecs() []Spec {
	specs := Presets()
	laws := []Spec{
		{Law: "uniform", Lo: 3, Hi: 7},
		{Law: "zipf", Alpha: 0.9, ZipfN: 1000},
		{Law: "pareto", Alpha: 1.7},
		{Law: "lognormal", Mu: -0.5, Sigma: 2},
	}
	for _, law := range laws {
		for _, hot := range []bool{false, true} {
			for _, drift := range []string{"none", "cycle"} {
				s := law
				s.Name = fmt.Sprintf("%s/hot=%v/drift=%s", law.Law, hot, drift)
				if hot {
					s.HotFrac, s.HotBoost = 0.05, 7.5
				}
				s.Drift, s.DriftRate = drift, 0.3
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// TestBulkFillMatchesAt: WBulk(base, dst) must equal At(base+j).W, and
// both must equal the reference chain, bit for bit, for any base and for
// lengths on both sides of any loop unrolling.
func TestBulkFillMatchesAt(t *testing.T) {
	for _, spec := range equivalenceSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			src := mustSource(t, spec, 0x5EED, 64)
			var cum []float64
			if src.spec.Law == "zipf" {
				cum = legacyZipfCDF(src.spec.ZipfN, src.spec.Alpha)
			}
			for _, cell := range [][2]int{{0, 0}, {2, 5}, {1, 9}} {
				pe, round := cell[0], cell[1]
				sb := src.NextBatch(pe, round).(*workload.SynthBatch)
				for _, base := range []uint64{0, 3, 1<<20 + 1} {
					for _, n := range []int{1, 2, 3, 5, 7, 63, 1001} {
						dst := make([]float64, n)
						sb.WBulk(base, dst)
						for j, got := range dst {
							i := base + uint64(j)
							at := sb.At(int(i)).W
							want := legacyWeight(src, cum, pe, round, i)
							if math.Float64bits(got) != math.Float64bits(at) || math.Float64bits(at) != math.Float64bits(want) {
								t.Fatalf("(pe=%d round=%d item=%d): WBulk %v, At %v, reference %v", pe, round, i, got, at, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestZipfRankMatchesBinarySearch: the guide-table search returns the
// binary search's rank for every u in (0, 1], including each CDF value and
// its float neighbours, where an off-by-one would show.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	for _, tc := range []struct {
		n     int
		alpha float64
	}{{2, 1.2}, {3, 0.5}, {64, 1.2}, {4096, 1.1}, {5000, 0.7}, {4097, 3}, {100, 40}} {
		tab := newZipfTable(tc.n, tc.alpha)
		want := legacyZipfCDF(tc.n, tc.alpha)
		for r := range want {
			if math.Float64bits(tab.cum[r]) != math.Float64bits(want[r]) {
				t.Fatalf("n=%d alpha=%g: cum[%d] = %v, want %v", tc.n, tc.alpha, r, tab.cum[r], want[r])
			}
		}
		us := []float64{0x1p-53, 1}
		for _, c := range tab.cum {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		src := rng.NewXoshiro256(uint64(tc.n))
		for i := 0; i < 20000; i++ {
			us = append(us, rng.U01(src), math.Float64frombits(src.Uint64()>>12|0x3ff<<52)-1)
		}
		for _, u := range us {
			if !(u > 0 && u <= 1) {
				continue
			}
			if got, want := tab.rank(u), sort.SearchFloat64s(tab.cum, u); got != want {
				t.Fatalf("n=%d alpha=%g: rank(%v) = %d, binary search %d", tc.n, tc.alpha, u, got, want)
			}
		}
	}
}

// TestZipfTablesSharedAcrossConcurrentCompiles compiles two different Zipf
// laws from many goroutines at once (run under -race): each source must get
// the table of its own (ZipfN, Alpha), and sources of one law share it.
func TestZipfTablesSharedAcrossConcurrentCompiles(t *testing.T) {
	specs := []Spec{
		{Law: "zipf", ZipfN: 300, Alpha: 1.3},
		{Law: "zipf", ZipfN: 4096, Alpha: 0.8},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		spec := specs[g%len(specs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src, err := spec.Source(uint64(i), 64)
				if err != nil {
					t.Error(err)
					return
				}
				if len(src.zipf.cum) != spec.ZipfN || src.zipf.alpha != spec.Alpha {
					t.Errorf("spec (%d, %g) got the table of (%d, %g)", spec.ZipfN, spec.Alpha, len(src.zipf.cum), src.zipf.alpha)
					return
				}
				if w := src.NextBatch(0, 0).At(0).W; w < 1 || w > float64(spec.ZipfN) {
					t.Errorf("spec (%d, %g): weight %g outside its support", spec.ZipfN, spec.Alpha, w)
					return
				}
			}
		}()
	}
	wg.Wait()
	a, b := mustSource(t, specs[0], 1, 8), mustSource(t, specs[0], 2, 8)
	if a.zipf != b.zipf {
		t.Error("two sources of one Zipf law compiled separate tables")
	}
}

// TestZipfTableCacheBounded: compiling many distinct laws keeps at most
// tableCacheSize tables, recently used ones stay, and the oldest go.
func TestZipfTableCacheBounded(t *testing.T) {
	var c tableCache
	first := c.get(16, 1.1)
	for i := 1; i <= 64; i++ {
		c.get(16+i, 1.1)
		if len(c.tabs) > tableCacheSize {
			t.Fatalf("after %d distinct laws the cache holds %d tables, bound %d", i+1, len(c.tabs), tableCacheSize)
		}
	}
	last := c.get(16+64, 1.1)
	if again := c.get(16+64, 1.1); again != last {
		t.Error("the most recent table was not reused")
	}
	if again := c.get(16, 1.1); again == first {
		t.Error("the oldest table was still cached after 64 newer ones")
	}

	for i := 0; i < 3*tableCacheSize; i++ {
		mustSource(t, Spec{Law: "zipf", ZipfN: 32 + i}, 1, 8)
	}
	zipfTables.mu.Lock()
	n := len(zipfTables.tabs)
	zipfTables.mu.Unlock()
	if n > tableCacheSize {
		t.Fatalf("Spec.Source retained %d tables, bound %d", n, tableCacheSize)
	}
}
