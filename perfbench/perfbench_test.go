package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"grasp/internal/cache"
	"grasp/internal/graph"
	"grasp/internal/mem"
	"grasp/internal/reorder"
	"grasp/internal/sim"
	"grasp/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestLRUModelHandWorked(t *testing.T) {
	// One set, two ways: A B A C B -> miss miss hit miss(evicts B) miss.
	m := newLRUModel(1, 2)
	var got []bool
	for _, b := range []uint64{0xA, 0xB, 0xA, 0xC, 0xB} {
		got = append(got, m.access(b<<blockBits))
	}
	want := []bool{false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hits %v, want %v", got, want)
		}
	}
	if m.hits != 1 || m.misses != 4 {
		t.Fatalf("hits/misses %d/%d, want 1/4", m.hits, m.misses)
	}
	// Two sets: blocks 0 and 2 share set 0 and 1 uses set 1, so with one
	// way 0 2 0 all miss while 1 1 hits once; bytes of one block share it.
	m = newLRUModel(2, 1)
	for _, b := range []uint64{0, 2, 0, 1, 1} {
		m.access(b << blockBits)
	}
	m.access(1<<blockBits | 63)
	if m.hits != 2 || m.misses != 4 {
		t.Fatalf("two sets: hits/misses %d/%d, want 2/4", m.hits, m.misses)
	}
}

func TestLRUModelMatchesSimulatorLRU(t *testing.T) {
	cfg := cache.Config{SizeBytes: 8 * 4 * cache.BlockSize, Ways: 4}
	c, err := cache.New(cfg, cache.NewLRU(cfg.Sets(), cfg.Ways))
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRNG(3)
	var addrs []uint64
	for i := 0; i < 20000; i++ {
		a := uint64(rng.Uint32n(96)) << blockBits
		addrs = append(addrs, a)
		c.Access(mem.Access{Addr: a})
	}
	if err := checkLRUModel(addrs, cfg, c.Stats.Misses, "random"); err != nil {
		t.Fatal(err)
	}
	if err := checkLRUModel(addrs, cfg, c.Stats.Misses+1, "perturbed"); err == nil {
		t.Fatal("a miss count off by one passed")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "unaccounted", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "replay.decode", Parent: 0, Start: 1 * ms, End: 4 * ms},
		{Name: "replay.policy", Parent: 1, Start: 2 * ms, End: 3 * ms},
		{Name: "record", Parent: 0, Start: 5 * ms, End: 9 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{3 * ms, 2 * ms, 1 * ms, 4 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self times %v, want %v", self, want)
		}
	}
	st := layerStats(spans)
	if st["replay"].Self != 3*ms || st["replay"].Count != 2 || st["record"].Self != 4*ms || st["unaccounted"].Self != 3*ms {
		t.Fatalf("layer stats %+v", st)
	}
	if d := nameSelf(spans, "replay.policy"); d != ms {
		t.Fatalf("nameSelf(replay.policy) = %v", d)
	}
	// A real tracer, with a span added from outside timestamps: the layers'
	// self times always add up to the root's length.
	tr := newTracer("unaccounted")
	tr.do("graph.load", func() error { time.Sleep(time.Millisecond); return nil })
	i := tr.begin("server.submit")
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.at(i, "jobs.execute", t0, t0.Add(time.Millisecond))
	tr.finish()
	var sum time.Duration
	for _, s := range layerStats(tr.spans) {
		sum += s.Self
	}
	if total := tr.spans[0].End - tr.spans[0].Start; sum != total {
		t.Fatalf("self times sum to %v, total %v", sum, total)
	}
}

func mkResult(l1Miss, l2Miss, llcMiss uint64, policy string) sim.Result {
	return sim.Result{Spec: sim.Spec{App: "PR", Policy: policy}, Workload: "lj",
		L1:  cache.Stats{Hits: 100, Misses: l1Miss},
		L2:  cache.Stats{Hits: l1Miss - l2Miss, Misses: l2Miss},
		LLC: cache.Stats{Hits: l2Miss - llcMiss, Misses: llcMiss}, Cycles: 1000}
}

func TestChecksRejectPerturbedResults(t *testing.T) {
	r := mkResult(40, 20, 8, "LRU")
	if err := checkHierarchy(r); err != nil {
		t.Fatal(err)
	}
	bad := r
	bad.LLC.Hits++
	if checkHierarchy(bad) == nil {
		t.Error("checkHierarchy accepted an LLC that saw more than the L2 missed")
	}
	other := mkResult(40, 20, 5, "GRASP")
	if err := checkSameLLCStream([]sim.Result{r, other}); err != nil {
		t.Fatal(err)
	}
	other.LLC.Misses++
	if checkSameLLCStream([]sim.Result{r, other}) == nil {
		t.Error("checkSameLLCStream accepted policy-dependent LLC accesses")
	}
	same := r
	if err := checkSameSim(r, same, "x"); err != nil {
		t.Fatal(err)
	}
	same.Cycles = math.Nextafter(same.Cycles, 2000)
	if checkSameSim(r, same, "x") == nil {
		t.Error("checkSameSim accepted cycles one ulp apart")
	}
}

func TestCheckOPTTables(t *testing.T) {
	fig11 := "% misses eliminated over LRU\nGroup     RRIP  GRASP   OPT\n--------  ----  -----  ----\nlj        10.9   15.9  27.0\nPR        11.0   15.8  25.7\n"
	table7 := "Scheme   1MB*   4MB*\n------  -----  -----\nRRIP    11.2%  13.6%\nGRASP   16.5%  17.5%\nOPT     27.3%  30.3%\n"
	if err := checkOPTTables(fig11, table7); err != nil {
		t.Fatal(err)
	}
	if checkOPTTables(strings.Replace(fig11, "27.0", "15.0", 1), table7) == nil {
		t.Error("fig11 with OPT below GRASP passed")
	}
	if checkOPTTables(fig11, strings.Replace(table7, "30.3%", "17.0%", 1)) == nil {
		t.Error("table7 with OPT below GRASP passed")
	}
	if checkOPTTables("", table7) == nil {
		t.Error("a missing fig11 table passed")
	}
}

func TestCheckPermutation(t *testing.T) {
	g := graph.GenPath(4)
	p := reorder.Identity(4)
	if err := checkPermutation(p, g, g, "path"); err != nil {
		t.Fatal(err)
	}
	p[0] = p[1]
	if checkPermutation(p, g, g, "path") == nil {
		t.Error("a permutation with a repeated vertex passed")
	}
	if checkPermutation(reorder.Identity(4), g, graph.GenPath(5), "path") == nil {
		t.Error("a reordered graph of another size passed")
	}
}

func corun(policy string) sim.CorunResult {
	a := sim.CorunAppResult{App: "BFS", LLC: cache.Stats{Hits: 5, Misses: 5}, Solo: sim.Result{LLC: cache.Stats{Hits: 7, Misses: 3}}}
	b := sim.CorunAppResult{App: "PR", LLC: cache.Stats{Hits: 10, Misses: 10}, Solo: sim.Result{LLC: cache.Stats{Hits: 12, Misses: 8}}}
	return sim.CorunResult{Policy: policy, Workload: "lj", Apps: []sim.CorunAppResult{a, b}, LLC: cache.Stats{Hits: 15, Misses: 15}}
}

func TestCheckCorunResult(t *testing.T) {
	if err := checkCorunResult(corun("LRU")); err != nil {
		t.Fatal(err)
	}
	r := corun("LRU")
	r.LLC.Misses++
	if checkCorunResult(r) == nil {
		t.Error("attribution that does not partition the totals passed")
	}
	r = corun("LRU")
	r.Apps[0].Solo.LLC.Hits++
	if checkCorunResult(r) == nil {
		t.Error("an app issuing other than its solo accesses passed")
	}
	r = corun("LRU")
	r.Apps[0].LLC = cache.Stats{Hits: 8, Misses: 2}
	r.LLC = cache.Stats{Hits: 18, Misses: 12}
	if checkCorunResult(r) == nil {
		t.Error("an LRU co-run missing less than solo passed")
	}
	r.Policy = "RRIP"
	if err := checkCorunResult(r); err != nil {
		t.Errorf("the stack-inclusion check applies to LRU only: %v", err)
	}
}

func TestCheckSampled(t *testing.T) {
	full := mkResult(40, 20, 8, "GRASP")
	sr := sim.SampledResult{SampleK: 1, SampledLLC: full.LLC, Est: stats.SetEstimate{
		SampledSets: 4, TotalSets: 4, SampledMisses: 8, TotalAccesses: 20, EstMisses: 8}}
	if err := checkSampled(sr, full, "k1"); err != nil {
		t.Fatal(err)
	}
	bad := sr
	bad.SampledLLC.Misses++
	if checkSampled(bad, full, "k1") == nil {
		t.Error("a K=1 estimate unequal to full fidelity passed")
	}
	bad = sr
	bad.SampleK, bad.Est.TotalAccesses = 16, 21
	if checkSampled(bad, full, "k16") == nil {
		t.Error("a sampled total unequal to the full LLC accesses passed")
	}
}
