package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/reorder"
	"grasp/internal/sim"
)

// Output checks. Each is computed apart from the program (an LRU model
// written here) or from a property the method must have; none compares
// against a stored copy of earlier output.

// checkHierarchy: every access that misses L1 goes to L2 and every access
// that misses L2 goes to the LLC, so each level's hits plus misses equal
// the misses of the level above.
func checkHierarchy(r sim.Result) error {
	if r.L2.Accesses() != r.L1.Misses || r.LLC.Accesses() != r.L2.Misses {
		return fmt.Errorf("%s %s %s: L1 misses %d, L2 hits+misses %d, L2 misses %d, LLC hits+misses %d",
			r.Workload, r.Spec.App, r.Spec.Policy, r.L1.Misses, r.L2.Accesses(), r.L2.Misses, r.LLC.Accesses())
	}
	return nil
}

// checkSameLLCStream: the private L1/L2 never see the LLC, so the LLC
// access count of one (dataset, reorder, app, layout) cannot depend on the
// LLC policy.
func checkSameLLCStream(rs []sim.Result) error {
	for _, r := range rs[1:] {
		if r.LLC.Accesses() != rs[0].LLC.Accesses() || r.L1 != rs[0].L1 || r.L2 != rs[0].L2 {
			return fmt.Errorf("%s %s: LLC accesses %d under %s but %d under %s",
				r.Workload, r.Spec.App, rs[0].LLC.Accesses(), rs[0].Spec.Policy, r.LLC.Accesses(), r.Spec.Policy)
		}
	}
	return nil
}

// checkLRUModel replays an LLC address stream through the independent LRU
// model and compares its misses with the program's LRU misses.
func checkLRUModel(addrs []uint64, llc cache.Config, programMisses uint64, what string) error {
	m := newLRUModel(int(llc.Sets()), int(llc.Ways))
	for _, a := range addrs {
		m.access(a)
	}
	if m.misses != programMisses {
		return fmt.Errorf("%s: independent LRU model misses %d, program's LRU misses %d", what, m.misses, programMisses)
	}
	return nil
}

// parseTable returns the rows of a rendered stats table: the first cell
// of each row, then its numeric cells ("12.3", "12.3%"). Header and rule
// lines are skipped.
func parseTable(text, header string) (map[string][]float64, error) {
	rows := make(map[string][]float64)
	in := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == header:
			in = true
		case !in || len(f) < 2 || strings.HasPrefix(f[0], "--"):
		default:
			var vals []float64
			for _, c := range f[1:] {
				v, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64)
				if err != nil {
					return nil, fmt.Errorf("cell %q of row %q: %w", c, f[0], err)
				}
				vals = append(vals, v)
			}
			rows[f[0]] = vals
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no %q table found", header)
	}
	return rows, nil
}

// checkOPTTables: Belady's OPT is optimal, so it eliminates at least as
// many misses over LRU as RRIP and GRASP in every row of fig11 and every
// LLC size of table7.
func checkOPTTables(fig11, table7 string) error {
	rows, err := parseTable(fig11, "Group")
	if err != nil {
		return fmt.Errorf("fig11: %w", err)
	}
	for label, v := range rows {
		if len(v) != 3 || v[2] < v[0] || v[2] < v[1] {
			return fmt.Errorf("fig11 row %s: OPT does not eliminate the most misses: %v", label, v)
		}
	}
	rows, err = parseTable(table7, "Scheme")
	if err != nil {
		return fmt.Errorf("table7: %w", err)
	}
	opt := rows["OPT"]
	for _, name := range []string{"RRIP", "GRASP"} {
		v := rows[name]
		if len(v) == 0 || len(v) != len(opt) {
			return fmt.Errorf("table7: rows OPT %v and %s %v", opt, name, v)
		}
		for i := range v {
			if opt[i] < v[i] {
				return fmt.Errorf("table7 column %d: OPT %.1f%% below %s %.1f%%", i, opt[i], name, v[i])
			}
		}
	}
	return nil
}

// checkPermutation: a reordering must be a permutation, and relabelling
// must keep the graph's size.
func checkPermutation(p reorder.Permutation, base, reordered *graph.CSR, what string) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if base.NumVertices() != reordered.NumVertices() || base.NumEdges() != reordered.NumEdges() {
		return fmt.Errorf("%s: reordered graph has %d vertices/%d edges, base %d/%d", what,
			reordered.NumVertices(), reordered.NumEdges(), base.NumVertices(), base.NumEdges())
	}
	return nil
}

type groupKey struct {
	ds, reorder, app string
	layout           apps.Layout
}

// checkPaperFigures runs every paper-figures check on a session that has
// rendered the experiments; text holds each experiment's output.
func checkPaperFigures(s *exp.Session, exps []exp.Experiment, text map[string]string, rep *report) {
	groups := make(map[groupKey][]sim.Result)
	var order []groupKey
	type pair struct{ ds, app string }
	var tracePairs []pair
	seen := make(map[exp.Datapoint]bool)
	for _, e := range exps {
		if e.Points == nil {
			continue
		}
		for _, p := range e.Points() {
			if seen[p] {
				continue
			}
			seen[p] = true
			if p.Trace {
				tracePairs = append(tracePairs, pair{p.DS, p.App})
				continue
			}
			r, err := s.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
			if err != nil {
				rep.checkErr(err)
				continue
			}
			rep.checkErr(checkHierarchy(r))
			k := groupKey{p.DS, p.Reorder, p.App, p.Layout}
			if groups[k] == nil {
				order = append(order, k)
			}
			groups[k] = append(groups[k], r)
		}
	}
	for _, k := range order {
		rep.checkErr(checkSameLLCStream(groups[k]))
	}
	llc := s.Cfg.HCfg.LLC
	for _, tp := range tracePairs {
		addrs, _, err := s.LLCTrace(tp.ds, tp.app)
		if err != nil {
			rep.checkErr(err)
			continue
		}
		lru, err := s.Result(tp.ds, "DBG", tp.app, apps.LayoutMerged, "LRU")
		if err != nil {
			rep.checkErr(err)
			continue
		}
		if uint64(len(addrs)) != lru.LLC.Accesses() {
			// The OPT study caps its traces; a capped prefix has no
			// program-side LRU count to compare with.
			info("lru-model: %s %s trace capped at %d of %d accesses, not compared", tp.ds, tp.app, len(addrs), lru.LLC.Accesses())
			continue
		}
		rep.checkErr(checkLRUModel(addrs, llc, lru.LLC.Misses, tp.ds+" "+tp.app))
	}
	info("checks: %d result datapoints in %d groups, %d LRU-model traces", len(seen)-len(tracePairs), len(order), len(tracePairs))
	rep.checkErr(checkOPTTables(text["fig11"], text["table7"]))
	// Every (dataset, reorder) the figures used, plus fig10a's techniques
	// on the high-skew datasets.
	type dr struct{ ds, reorder string }
	perms := make(map[dr]bool)
	for _, k := range order {
		perms[dr{k.ds, k.reorder}] = true
	}
	for _, d := range graph.HighSkewDatasets() {
		for _, t := range reorder.Techniques() {
			perms[dr{d.Name, t.Name}] = true
		}
	}
	for k := range perms {
		ds, err := graph.DatasetByName(k.ds)
		if err != nil {
			rep.checkErr(err)
			continue
		}
		tech, err := reorder.ByName(k.reorder)
		if err != nil {
			rep.checkErr(err)
			continue
		}
		w, err := s.Workload(k.ds, k.reorder, false)
		if err != nil {
			rep.checkErr(err)
			continue
		}
		base := ds.Generate(false, s.Cfg.ScaleDiv)
		p, _ := reorder.Timed(tech, base, reorder.BySum)
		rep.checkErr(checkPermutation(p, base, w.Graph, k.ds+" "+k.reorder))
	}
}

// corunMixes mirrors the co-run experiment's four mixes.
var corunMixes = [][]string{
	{"BFS", "PR"},
	{"KCore", "TC"},
	{"BFS", "PR", "KCore", "TC"},
	{"BFS", "PR", "KCore", "TC", "BFS", "PR", "KCore", "TC"},
}

// checkCorunResult: the per-app attribution partitions the shared LLC's
// totals; each app issues exactly its solo accesses; and under LRU no app
// misses less when sharing than alone (a co-runner's accesses can only
// push an app's blocks further down each set's recency stack).
func checkCorunResult(r sim.CorunResult) error {
	var total cache.Stats
	for _, a := range r.Apps {
		total.Hits += a.LLC.Hits
		total.Misses += a.LLC.Misses
		total.PropHits += a.LLC.PropHits
		total.PropMisses += a.LLC.PropMisses
		total.Bypasses += a.LLC.Bypasses
		total.Evictions += a.LLC.Evictions
		total.Writebacks += a.LLC.Writebacks
		if a.LLC.Accesses() != a.Solo.LLC.Accesses() {
			return fmt.Errorf("%s %s: %s issues %d LLC accesses co-running, %d solo",
				r.Workload, r.Policy, a.App, a.LLC.Accesses(), a.Solo.LLC.Accesses())
		}
		if r.Policy == "LRU" && a.LLC.Misses < a.Solo.LLC.Misses {
			return fmt.Errorf("%s LRU: %s misses %d shared but %d solo", r.Workload, a.App, a.LLC.Misses, a.Solo.LLC.Misses)
		}
	}
	if total != r.LLC {
		return fmt.Errorf("%s %s: per-app LLC stats sum to %+v, shared totals %+v", r.Workload, r.Policy, total, r.LLC)
	}
	return nil
}

// checkCorun checks every cell of the co-run experiment on its session.
func checkCorun(s *exp.Session, rep *report) {
	cells := 0
	for _, mix := range corunMixes {
		for _, p := range sim.Policies() {
			for _, d := range graph.HighSkewDatasets() {
				r, err := s.CorunResult(d.Name, "DBG", mix, nil, apps.LayoutMerged, p.Name)
				if err != nil {
					rep.checkErr(err)
					continue
				}
				cells++
				rep.checkErr(checkCorunResult(r))
				for _, a := range r.Apps {
					rep.checkErr(checkHierarchy(a.Solo))
				}
			}
		}
	}
	info("checks: %d co-run cells", cells)
}

// checkSameSim compares two results of the same spec bit for bit on every
// simulated counter and the modelled cycles (AppTime is native wall-clock
// time and differs by nature).
func checkSameSim(a, b sim.Result, what string) error {
	if a.L1 != b.L1 || a.L2 != b.L2 || a.LLC != b.LLC || math.Float64bits(a.Cycles) != math.Float64bits(b.Cycles) {
		return fmt.Errorf("%s: results differ: L1 %+v/%+v L2 %+v/%+v LLC %+v/%+v cycles %v/%v",
			what, a.L1, b.L1, a.L2, b.L2, a.LLC, b.LLC, a.Cycles, b.Cycles)
	}
	return nil
}

// checkSampled: a sampled estimate covers the recording's exact LLC access
// count, and with K=1 it simulates every set, so its counts equal full
// fidelity exactly.
func checkSampled(sr sim.SampledResult, full sim.Result, what string) error {
	if sr.Est.TotalAccesses != full.LLC.Accesses() {
		return fmt.Errorf("%s: sampled total accesses %d, full LLC accesses %d", what, sr.Est.TotalAccesses, full.LLC.Accesses())
	}
	if sr.SampleK == 1 {
		if sr.SampledLLC != full.LLC || sr.Est.SampledMisses != full.LLC.Misses ||
			sr.Est.EstMisses != float64(full.LLC.Misses) || sr.Est.SampledSets != sr.Est.TotalSets {
			return fmt.Errorf("%s: sample_k=1 estimate %+v (LLC %+v) differs from full LLC %+v", what, sr.Est, sr.SampledLLC, full.LLC)
		}
	}
	return nil
}
