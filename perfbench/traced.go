package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/jobs"
	"grasp/internal/ligra"
	"grasp/internal/mem"
	"grasp/internal/policy"
	"grasp/internal/sim"
	"grasp/internal/trace"
)

// The traced run (--trace 1) times the layers from outside: it calls each
// layer's public entry points from this package, one span per call, on a
// single goroutine, so spans nest and the layers' self times plus the
// root's own time ("unaccounted") add up to the traced total. It has three
// parts:
//
//  1. the workload's own work, split by layer (for the engine workloads:
//     load, reorder, record, replay/direct, OPT and co-run on the same
//     datapoints RunAll computes; for daemon-mix: the job mix against a
//     spawned graspd over one connection, with each job's queue wait and
//     execution taken from its GET /jobs/{id} timestamps);
//  2. for the engine workloads, the engine itself: Session.Prefetch and each
//     experiment's render on a fresh session;
//  3. a fixed probe of every layer on one input (lj, PR, 1/16 scale), which
//     gives the per-access rates and keeps every layer measured on every
//     workload. Layers a workload does not reach show only probe time.

const (
	probeScale = 16
	optCap     = 8_000_000 // the OPT study's trace cap
	reps       = 3         // repetitions of each per-access probe; the median is kept
)

// probePolicies are the LLC policies whose replay cost is reported.
var probePolicies = []string{"LRU", "RRIP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-50", "GRASP"}

// tracedAcc collects the traced run's non-time figures.
type tracedAcc struct {
	edges                 uint64
	llcAccesses, llcBytes int64
	engine                *exp.Session
	daemon                daemonFigures
}

// daemonFigures are what the traced daemon section observes.
type daemonFigures struct {
	queueMs, execMs, coldOverMs, hitMs []float64
	executed, dedup, storeHits         float64
}

func tracedRun(workload string, seed int64, bin string, rep *report) error {
	if bin == "" {
		return fmt.Errorf("the traced run needs -graspd")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		return err
	}
	runs0, cons0 := trace.BroadcastStats()
	tr := newTracer("unaccounted")
	acc := &tracedAcc{}
	switch workload {
	case "daemon-mix":
		err = traceDaemonMix(tr, seed, bin, tmp, acc, rep)
	default:
		err = traceEngine(tr, workload, acc)
	}
	if err != nil {
		return err
	}
	if workload != "daemon-mix" {
		// The daemon layers on an engine workload: a small job mix.
		small := mixSpecs{
			cold: []jobs.Spec{
				{Kind: jobs.KindSingle, Graph: "lj", App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 64},
				{Kind: jobs.KindSingle, Graph: "lj", App: "BFS", Policy: "LRU", Reorder: "DBG", Scale: 64},
			},
			sampled: []jobs.Spec{{Kind: jobs.KindSingle, Graph: "lj", App: "PR", Policy: "RRIP", Reorder: "DBG", Scale: 64, Fidelity: jobs.FidelitySampled}},
			dups:    []jobs.Spec{{Kind: jobs.KindSingle, Graph: "tw", App: "PR", Policy: "LRU", Reorder: "DBG", Scale: 64}},
		}
		if err := traceDaemon(tr, bin, filepath.Join(tmp, "probe-daemon"), small, 20, acc, rep); err != nil {
			return err
		}
	}
	if err := probeLayers(tr, workload, tmp, acc, rep); err != nil {
		return err
	}
	runs1, cons1 := trace.BroadcastStats()
	tr.finish()
	spans := tr.spans
	if err := writeSpans(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", workload, seed)), spans); err != nil {
		return err
	}
	reportLayers(spans, acc, rep)
	if runs1 > runs0 {
		rep.set("replay.consumers_per_decode", "count", float64(cons1-cons0)/float64(runs1-runs0))
	} else {
		rep.set("replay.consumers_per_decode", "count", 0)
	}
	rep.attempted++
	return nil
}

// reportLayers turns the span tree into the per-layer metrics and prints
// the self-time table.
func reportLayers(spans []span, acc *tracedAcc, rep *report) {
	st := layerStats(spans)
	total := spans[0].End - spans[0].Start
	var selfSum time.Duration
	info("layer self times (traced total %.3fs):", total.Seconds())
	for _, l := range layerNames(st) {
		selfSum += st[l].Self
		info("  %-12s %9.4fs %6.2f%% %7d spans", l, st[l].Self.Seconds(), 100*st[l].Self.Seconds()/total.Seconds(), st[l].Count)
	}
	rep.check(selfSum == total, "layer self times sum to %v, traced total %v", selfSum, total)
	sec := func(name string) float64 { return nameSelf(spans, name).Seconds() }
	rep.set("traced_total_s", "s", total.Seconds())
	rep.set("unaccounted_s", "s", st["unaccounted"].Self.Seconds())
	rep.set("graph.load_s", "s", sec("graph.load"))
	rep.set("graph.ingest_s", "s", sec("graph.ingest"))
	rep.set("graph.edges", "count", float64(acc.edges))
	rep.set("reorder.busy_s", "s", sec("reorder"))
	rep.set("reorder.gorder_s", "s", sec("reorder.gorder"))
	rep.set("reorder.dbg_s", "s", sec("reorder.dbg"))
	rep.set("record.busy_s", "s", sec("record"))
	rep.set("record.llc_accesses", "count", float64(acc.llcAccesses))
	rep.set("record.bytes_per_llc_access", "B", float64(acc.llcBytes)/math.Max(1, float64(acc.llcAccesses)))
	rep.set("direct.busy_s", "s", sec("direct"))
	rep.set("replay.busy_s", "s", sec("replay"))
	rep.set("opt.busy_s", "s", sec("opt"))
	rep.set("sampled.busy_s", "s", sec("sampled"))
	rep.set("corun.busy_s", "s", sec("corun"))
	rep.set("render.busy_s", "s", sec("render"))
	rep.set("render.fig10a_s", "s", sec("render.fig10a"))
	rep.set("render.corun_s", "s", sec("render.corun"))
	rep.set("engine.prefetch_s", "s", sec("engine.prefetch"))
	if s := acc.engine; s != nil {
		rep.set("engine.sim_runs", "count", float64(s.SimRuns()))
		rep.set("engine.broadcast_groups", "count", float64(s.Broadcasts()))
		rep.set("engine.trace_bytes_retained", "B", float64(s.TraceBytesRetained()))
	}
	d := acc.daemon
	rep.set("jobs.queue_wait_p50_ms", "ms", percentile(d.queueMs, 50))
	rep.set("jobs.execute_p50_ms", "ms", percentile(d.execMs, 50))
	rep.set("jobs.executed", "count", d.executed)
	rep.set("jobs.dedup_joins", "count", d.dedup)
	rep.set("jobs.store_hits", "count", d.storeHits)
	rep.set("server.cold_overhead_ms", "ms", percentile(d.coldOverMs, 50))
	rep.set("server.hit_overhead_ms", "ms", percentile(d.hitMs, 50)-rep.metrics["store.get_us"].Value/1000)
	info("jobs: %d executed with timestamps; queue wait p50 %.3fms, execute p50 %.3fms, cold overhead p50 %.3fms (%d samples), hit p50 %.4fms (%d samples)",
		len(d.execMs), percentile(d.queueMs, 50), percentile(d.execMs, 50), percentile(d.coldOverMs, 50), len(d.coldOverMs),
		percentile(d.hitMs, 50), len(d.hitMs))
}

// wkey identifies one prepared workload.
type wkey struct {
	ds, reorder string
	weighted    bool
}

// pipeline prepares graphs and workloads under graph/reorder spans,
// memoised like the session does.
type pipeline struct {
	tr    *tracer
	scale uint32
	hcfg  cache.HierarchyConfig
	bases map[wkey]*graph.CSR
	works map[wkey]*sim.Workload
	acc   *tracedAcc
}

func newPipeline(tr *tracer, scale uint32, acc *tracedAcc) *pipeline {
	return &pipeline{tr: tr, scale: scale, hcfg: exp.ScaledConfig(scale).HCfg,
		bases: make(map[wkey]*graph.CSR), works: make(map[wkey]*sim.Workload), acc: acc}
}

func reorderSpan(name string) string {
	switch name {
	case "Gorder":
		return "reorder.gorder"
	case "DBG":
		return "reorder.dbg"
	}
	return "reorder.other"
}

func (p *pipeline) workload(dsName, reorderName string, weighted bool) (*sim.Workload, error) {
	k := wkey{dsName, reorderName, weighted}
	if w := p.works[k]; w != nil {
		return w, nil
	}
	ds, err := graph.DatasetByName(dsName)
	if err != nil {
		return nil, err
	}
	bk := wkey{dsName, "", weighted}
	g := p.bases[bk]
	if g == nil {
		err = p.tr.do("graph.load", func() (err error) { g, err = ds.Load(weighted, p.scale); return err })
		if err != nil {
			return nil, err
		}
		p.bases[bk] = g
		p.acc.edges += g.NumEdges()
	}
	var w *sim.Workload
	err = p.tr.do(reorderSpan(reorderName), func() (err error) { w, err = sim.PrepareWorkloadOn(g, ds, reorderName, weighted); return err })
	if err != nil {
		return nil, err
	}
	p.works[k] = w
	return w, nil
}

// record records one group's LLC trace under a record span.
func (p *pipeline) record(w *sim.Workload, app string, layout apps.Layout) (*trace.Trace, [][2]uint64, error) {
	var t *trace.Trace
	var bounds [][2]uint64
	err := p.tr.do("record", func() (err error) {
		if t, err = sim.RecordTraceNCtx(context.Background(), w, app, layout, p.hcfg, 0); err != nil {
			return err
		}
		bounds, err = sim.ABRBoundsFor(w, app, layout)
		return err
	})
	if err == nil {
		p.acc.llcAccesses += t.Len()
		p.acc.llcBytes += t.SizeBytes()
	}
	return t, bounds, err
}

// opt runs the OPT study's work for one recording: decode the capped
// prefix into block addresses and run Belady's OPT at the base LLC.
func (p *pipeline) opt(t *trace.Trace) (uint64, error) {
	var misses uint64
	err := p.tr.do("opt", func() error {
		blocks := make([]uint64, 0, min(t.Len(), optCap))
		err := t.BroadcastNCtx(context.Background(), optCap, []func([]mem.Access){func(accs []mem.Access) {
			for _, a := range accs {
				blocks = append(blocks, cache.BlockAddr(a.Addr))
			}
		}})
		misses = policy.SimulateOPT(blocks, p.hcfg.LLC.Sets(), p.hcfg.LLC.Ways).Misses
		return err
	})
	return misses, err
}

// traceEngine runs an engine workload's datapoints layer by layer, then
// the engine on a fresh session.
func traceEngine(tr *tracer, workload string, acc *tracedAcc) error {
	wl := engineWorkloads[workload]
	var exps []exp.Experiment
	var points []exp.Datapoint
	for _, id := range wl.exps {
		e, err := exp.ByID(id)
		if err != nil {
			return err
		}
		exps = append(exps, e)
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	p := newPipeline(tr, wl.scale, acc)
	var err error
	if workload == "corun-mix" {
		err = traceCorunCells(p)
	} else {
		err = traceDatapoints(p, points)
	}
	if err != nil {
		return err
	}
	acc.engine = exp.NewSession(exp.ScaledConfig(wl.scale))
	return engineSection(tr, acc.engine, exps)
}

// engineSection runs the engine itself on session s: one Prefetch of every
// declared datapoint, then each experiment's render.
func engineSection(tr *tracer, s *exp.Session, exps []exp.Experiment) error {
	var points []exp.Datapoint
	for _, e := range exps {
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	if err := tr.do("engine.prefetch", func() error { return s.Prefetch(points) }); err != nil {
		return err
	}
	for _, e := range exps {
		if err := tr.do("render."+e.ID, func() error { return e.Run(s, io.Discard) }); err != nil {
			return err
		}
	}
	return nil
}

// traceDatapoints computes the batch the way Prefetch plans it: groups of
// (dataset, reorder, app, layout) asked for under two or more policies, or
// whose LLC trace is declared, record once and broadcast-replay; the rest
// run execution-driven.
func traceDatapoints(p *pipeline, points []exp.Datapoint) error {
	ctx := context.Background()
	type group struct {
		policies []string
		trace    bool
	}
	groups := make(map[groupKey]*group)
	var order []groupKey
	seen := make(map[exp.Datapoint]bool)
	for _, d := range points {
		if seen[d] {
			continue
		}
		seen[d] = true
		k := groupKey{d.DS, d.Reorder, d.App, d.Layout}
		if d.Trace {
			k = groupKey{d.DS, "DBG", d.App, apps.LayoutMerged}
		}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		if d.Trace {
			g.trace = true
		} else {
			g.policies = append(g.policies, d.Policy)
		}
	}
	for _, k := range order {
		g := groups[k]
		w, err := p.workload(k.ds, k.reorder, k.app == "SSSP")
		if err != nil {
			return err
		}
		specs := make([]sim.Spec, len(g.policies))
		for i, pol := range g.policies {
			specs[i] = sim.Spec{App: k.app, Layout: k.layout, Policy: pol, HCfg: p.hcfg}
		}
		if len(specs) == 1 && !g.trace {
			if err := p.tr.do("direct", func() error { _, err := sim.RunCtx(ctx, w, specs[0]); return err }); err != nil {
				return err
			}
			continue
		}
		t, bounds, err := p.record(w, k.app, k.layout)
		if err != nil {
			return err
		}
		if len(specs) > 0 {
			err = p.tr.do("replay", func() error {
				_, err := sim.BroadcastResultsCtx(ctx, t, specs, w.Dataset.Name, bounds)
				return err
			})
		}
		if err == nil && g.trace {
			_, err = p.opt(t)
		}
		t.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// traceCorunCells computes the co-run experiment's work layer by layer:
// per dataset, record the four kernels once, broadcast-replay every
// policy's solo baseline, then replay every (mix, policy) cell.
func traceCorunCells(p *pipeline) error {
	ctx := context.Background()
	kernels := []string{"BFS", "PR", "KCore", "TC"}
	var specsFor = func(app string) []sim.Spec {
		var out []sim.Spec
		for _, pol := range sim.Policies() {
			out = append(out, sim.Spec{App: app, Layout: apps.LayoutMerged, Policy: pol.Name, HCfg: p.hcfg})
		}
		return out
	}
	for _, d := range graph.HighSkewDatasets() {
		w, err := p.workload(d.Name, "DBG", false)
		if err != nil {
			return err
		}
		traces := make(map[string]*trace.Trace)
		bounds := make(map[string][][2]uint64)
		solos := make(map[string][]sim.Result)
		for _, app := range kernels {
			t, b, err := p.record(w, app, apps.LayoutMerged)
			if err != nil {
				return err
			}
			traces[app], bounds[app] = t, b
			err = p.tr.do("replay", func() (err error) {
				solos[app], err = sim.BroadcastResultsCtx(ctx, t, specsFor(app), w.Dataset.Name, b)
				return err
			})
			if err != nil {
				return err
			}
		}
		for _, mix := range corunMixes {
			for pi, pol := range sim.Policies() {
				streams := make([]sim.CorunStream, len(mix))
				for i, app := range mix {
					streams[i] = sim.CorunStream{App: app, Layout: apps.LayoutMerged, Weight: 1,
						Trace: traces[app], Bounds: bounds[app], Solo: solos[app][pi]}
				}
				err := p.tr.do("corun", func() error {
					_, err := sim.CorunReplayResultCtx(ctx, streams, pol.Name, p.hcfg, w.Dataset.Name)
					return err
				})
				if err != nil {
					return err
				}
			}
		}
		for _, t := range traces {
			t.Release()
		}
	}
	return nil
}

// traceDaemonMix runs the daemon workload's job mix against a spawned
// graspd over one connection.
func traceDaemonMix(tr *tracer, seed int64, bin, tmp string, acc *tracedAcc, rep *report) error {
	var pow, uni string
	err := tr.do("bench.files", func() (err error) { pow, uni, err = writeGraphFiles(tmp, seed); return err })
	if err != nil {
		return err
	}
	for _, f := range []string{pow, uni} {
		var g *graph.CSR
		if err := tr.do("graph.ingest", func() (err error) { g, err = graph.ReadGraphFile(f); return err }); err != nil {
			return err
		}
		acc.edges += g.NumEdges()
	}
	m := buildSpecs(pow, uni)
	describeMix(m, pow, uni)
	return traceDaemon(tr, bin, filepath.Join(tmp, "daemon"), m, hitRounds2, acc, rep)
}

// traceDaemon drives one daemon lifetime, a restart and a second lifetime
// with one connection. Each executed job's queue wait and execution come
// from its GET /jobs/{id} timestamps and become child spans of the
// submission, so a submission's self time is the daemon's HTTP overhead.
func traceDaemon(tr *tracer, bin, dir string, m mixSpecs, hitRounds int, acc *tracedAcc, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, logPath := filepath.Join(dir, "data"), filepath.Join(dir, "graspd.log")
	c := newClient()
	defer c.CloseIdleConnections()
	var d *daemonProc
	boot := func() error {
		return tr.do("server.boot", func() (err error) { d, err = startDaemon(bin, data, logPath); return err })
	}
	drain := func() error {
		c.CloseIdleConnections()
		return tr.do("server.drain", func() error { _, err := d.stop(); return err })
	}
	if err := boot(); err != nil {
		return err
	}
	defer func() { d.kill() }()
	answers := make(map[string][]byte)
	fig := &acc.daemon
	ids := 0
	for _, s := range append(append([]jobs.Spec{}, m.cold...), m.sampled...) {
		i := tr.begin("server.submit")
		body, lat, err := submit(c, d.base, s)
		tr.end()
		rep.attempted++
		if err != nil {
			rep.failed++
			info("traced job failed: %v", err)
			continue
		}
		ids++
		answers[specKey(s)] = body
		var st jobs.Status
		err = tr.do("bench.status", func() error { return getJSON(c, fmt.Sprintf("%s/jobs/j%06d", d.base, ids), &st) })
		if err != nil {
			return err
		}
		var o jobs.Outcome
		if json.Unmarshal(body, &o) != nil || o.Hash != st.Hash || st.Cached {
			return fmt.Errorf("job j%06d is not the submission just answered", ids)
		}
		tr.at(i, "jobs.queue", st.Submitted, st.Started)
		tr.at(i, "jobs.execute", st.Started, st.Finished)
		fig.queueMs = append(fig.queueMs, ms(st.Started.Sub(st.Submitted)))
		fig.execMs = append(fig.execMs, ms(st.Finished.Sub(st.Started)))
		fig.coldOverMs = append(fig.coldOverMs, ms(lat-st.Finished.Sub(st.Submitted)))
	}
	for _, s := range m.dups {
		var bodies [conns][]byte
		var errs [conns]error
		i := tr.begin("server.dups")
		bodies, _, errs = dupPair(c, d.base, s)
		tr.end()
		// The pair minted one job, or two if the second found the first's
		// result stored; the executed one's timestamps become child spans.
		for {
			var st jobs.Status
			if tr.do("bench.status", func() error { return getJSON(c, fmt.Sprintf("%s/jobs/j%06d", d.base, ids+1), &st) }) != nil {
				break
			}
			ids++
			if !st.Cached {
				tr.at(i, "jobs.queue", st.Submitted, st.Started)
				tr.at(i, "jobs.execute", st.Started, st.Finished)
			}
		}
		for _, err := range errs {
			rep.attempted++
			if err != nil {
				rep.failed++
				info("traced duplicate job failed: %v", err)
			}
		}
		answers[specKey(s)] = bodies[0]
		rep.check(bytes.Equal(bodies[0], bodies[1]), "traced duplicate pair %s answered differently", s.Graph)
	}
	all := append(append(append([]jobs.Spec{}, m.cold...), m.sampled...), m.dups...)
	hits := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for _, s := range all {
				tr.begin("server.hit")
				body, lat, err := submit(c, d.base, s)
				tr.end()
				rep.attempted++
				if err != nil {
					rep.failed++
					continue
				}
				fig.hitMs = append(fig.hitMs, ms(lat))
				rep.check(bytes.Equal(body, answers[specKey(s)]), "traced hit for %s %s differs from its cold answer", s.Graph, s.Policy)
			}
		}
	}
	hits(hitRounds)
	var met map[string]float64
	if err := tr.do("bench.metrics", func() (err error) { met, err = scrape(c, d.base); return err }); err != nil {
		return err
	}
	fig.executed += met["jobs_executed_total"]
	fig.dedup += met["inflight_dedup_hits_total"]
	fig.storeHits += met["result_store_hits_total"]
	rep.check(int(met["jobs_executed_total"]) == m.distinct(), "traced daemon executed %v jobs for %d distinct specs", met["jobs_executed_total"], m.distinct())
	if err := drain(); err != nil {
		return err
	}
	if err := boot(); err != nil {
		return err
	}
	hits(2)
	if err := drain(); err != nil {
		return err
	}
	return nil
}

// probeLayers measures every layer once on the probe input.
func probeLayers(tr *tracer, workload, tmp string, acc *tracedAcc, rep *report) error {
	ctx := context.Background()
	p := newPipeline(tr, probeScale, acc)
	ds, _ := graph.DatasetByName("lj")
	w, err := p.workload("lj", "DBG", false)
	if err != nil {
		return err
	}
	if _, err := p.workload("lj", "Gorder", false); err != nil {
		return err
	}
	// Ingest: the probe graph written as an edge list and parsed back.
	el := filepath.Join(tmp, "probe.el")
	err = tr.do("bench.write", func() error {
		f, err := os.Create(el)
		if err != nil {
			return err
		}
		if err := graph.WriteEdgeList(f, p.bases[wkey{"lj", "", false}]); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	if err := tr.do("graph.ingest", func() error { _, err := graph.ReadGraphFile(el); return err }); err != nil {
		return err
	}
	// Record, split three ways: the app kernel into a discarding sink; the
	// private L1/L2 filter over the kernel's captured access stream; and
	// the encoder over the filter's LLC-bound output.
	const app = "PR"
	layout := apps.LayoutMerged
	newApp := func() apps.App { a, _ := apps.New(app, ligra.NewGraph(w.Graph), layout); return a }
	var all, llcBound []mem.Access
	tr.do("bench.capture", func() error {
		newApp().Run(ligra.NewTracer(captureSink{&all}))
		u, err := cache.NewUpperLevels(p.hcfg)
		for _, a := range all {
			if err == nil && !u.Filter(a) {
				llcBound = append(llcBound, a)
			}
		}
		return err
	})
	kernel, err := medianSpan(tr, "record.kernel", func() error {
		newApp().Run(ligra.NewTracer(mem.NullSink{}))
		return nil
	})
	if err != nil {
		return err
	}
	filter, err := medianSpan(tr, "record.filter", func() error {
		u, err := cache.NewUpperLevels(p.hcfg)
		for _, a := range all {
			u.Filter(a)
		}
		return err
	})
	if err != nil {
		return err
	}
	encode, err := medianSpan(tr, "record.encode", func() error {
		rec := trace.NewRawRecorder()
		for _, a := range llcBound {
			rec.Record(a)
		}
		et, err := rec.Finish(0)
		if err == nil {
			et.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("record.kernel_ns_per_access", "ns", kernel/float64(len(all)))
	rep.set("record.filter_ns_per_access", "ns", filter/float64(len(all)))
	rep.set("record.encode_ns_per_llc_access", "ns", encode/float64(len(llcBound)))
	all, llcBound = nil, nil
	t, bounds, err := p.record(w, app, layout)
	if err != nil {
		return err
	}
	defer t.Release()
	n := float64(t.Len())
	spec := func(pol string) sim.Spec { return sim.Spec{App: app, Layout: layout, Policy: pol, HCfg: p.hcfg} }
	// Direct: the whole execution-driven simulation, per access issued.
	var res sim.Result
	direct, err := medianSpan(tr, "direct", func() (err error) { res, err = sim.RunCtx(ctx, w, spec("GRASP")); return err })
	if err != nil {
		return err
	}
	rep.set("direct.ns_per_access", "ns", direct/float64(res.L1.Accesses()))
	// Replay: decode alone (broadcast to a no-op consumer), then each
	// policy's replay minus the decode.
	decode, err := medianSpan(tr, "replay.decode", func() error {
		return t.BroadcastNCtx(ctx, 0, []func([]mem.Access){func([]mem.Access) {}})
	})
	if err != nil {
		return err
	}
	rep.set("replay.decode_ns_per_access", "ns", decode/n)
	for _, pol := range probePolicies {
		d, err := medianSpan(tr, "replay.policy", func() error {
			_, err := sim.ReplayResultCtx(ctx, t, spec(pol), ds.Name, bounds)
			return err
		})
		if err != nil {
			return err
		}
		rep.set("replay.policy_ns_per_access."+pol, "ns", (d-decode)/n)
	}
	if _, err := p.opt(t); err != nil {
		return err
	}
	// Sampled, at the daemon's default K.
	var sres sim.SampledResult
	var skip trace.SkipReport
	sampled, err := medianSpan(tr, "sampled", func() (err error) {
		sres, skip, err = sim.SampledReplayResultSkipCtx(ctx, t, spec("GRASP"), ds.Name, bounds, jobs.DefaultSampleK)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("sampled.ns_per_recorded_access", "ns", sampled/n)
	decoded := skip.AccessesDelivered + skip.AccessesPruned + skip.AccessesSkipped
	rep.set("sampled.delivered_per_decoded", "ratio", float64(skip.AccessesDelivered)/math.Max(1, float64(decoded)))
	rep.set("sampled.realized_k", "count", float64(sres.Est.TotalSets)/math.Max(1, float64(sres.Est.SampledSets)))
	info("sampled probe: requested K=%d, realized K=%d/%d sets", jobs.DefaultSampleK, sres.Est.SampledSets, sres.Est.TotalSets)
	if err := probeCorun(tr, p, w, t, bounds, rep); err != nil {
		return err
	}
	if err := probeStore(tr, filepath.Join(tmp, "probe-store"), rep); err != nil {
		return err
	}
	return probeEngine(tr, workload, acc)
}

// medianSpan runs fn reps times, each in a span named name, and returns
// the median span length in nanoseconds.
func medianSpan(tr *tracer, name string, fn func() error) (float64, error) {
	var xs []float64
	for r := 0; r < reps; r++ {
		tr.begin(name)
		err := fn()
		xs = append(xs, float64(tr.end()))
		if err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// captureSink keeps every access the kernel issues.
type captureSink struct{ accs *[]mem.Access }

func (c captureSink) Access(a mem.Access) { *c.accs = append(*c.accs, a) }

// probeCorun measures the co-run layer on the probe input: the
// interleaver alone, the shared-LLC replay, and one session cell with warm
// recordings and solos.
func probeCorun(tr *tracer, p *pipeline, w *sim.Workload, pr *trace.Trace, prBounds [][2]uint64, rep *report) error {
	ctx := context.Background()
	bfs, bfsBounds, err := p.record(w, "BFS", apps.LayoutMerged)
	if err != nil {
		return err
	}
	defer bfs.Release()
	streams := []sim.CorunStream{
		{App: "BFS", Layout: apps.LayoutMerged, Weight: 1, Trace: bfs, Bounds: bfsBounds},
		{App: "PR", Layout: apps.LayoutMerged, Weight: 1, Trace: pr, Bounds: prBounds},
	}
	for i := range streams {
		s := &streams[i]
		err := tr.do("replay", func() (err error) {
			s.Solo, err = sim.ReplayResultCtx(ctx, s.Trace, sim.Spec{App: s.App, Layout: s.Layout, Policy: "LRU", HCfg: p.hcfg}, w.Dataset.Name, s.Bounds)
			return err
		})
		if err != nil {
			return err
		}
	}
	total := float64(bfs.Len() + pr.Len())
	its := []trace.InterleaveStream{{Trace: bfs, Weight: 1}, {Trace: pr, Weight: 1}}
	inter, err := medianSpan(tr, "corun.interleave", func() error {
		return trace.InterleaveReplayCtx(ctx, its, 0, func(int, []mem.Access) {})
	})
	if err != nil {
		return err
	}
	cell, err := medianSpan(tr, "corun.replay", func() error {
		_, err := sim.CorunReplayResultCtx(ctx, streams, "LRU", p.hcfg, w.Dataset.Name)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("corun.interleave_ns_per_access", "ns", inter/total)
	rep.set("corun.llc_ns_per_access", "ns", (cell-inter)/total)
	// A session cell: warm the recordings and the GRASP solos first.
	s := exp.NewSession(exp.ScaledConfig(probeScale))
	mix := []string{"BFS", "PR"}
	err = tr.do("corun.warm", func() error {
		if _, err := s.CorunResultCtx(ctx, "lj", "DBG", mix, nil, apps.LayoutMerged, "RRIP"); err != nil {
			return err
		}
		for _, app := range mix {
			if _, err := s.ResultCtx(ctx, "lj", "DBG", app, apps.LayoutMerged, "GRASP"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.begin("corun.cell")
	_, err = s.CorunResultCtx(ctx, "lj", "DBG", mix, nil, apps.LayoutMerged, "GRASP")
	rep.set("corun.cell_ms", "ms", ms(tr.end()))
	return err
}

// probeStore measures the result store: puts, gets, and opening a store
// that holds them.
func probeStore(tr *tracer, dir string, rep *report) error {
	const n = 40
	var st *jobs.Store
	if err := tr.do("store.open", func() (err error) { st, err = jobs.OpenStore(dir); return err }); err != nil {
		return err
	}
	r := sim.Result{Workload: "lj", Cycles: 1}
	var puts, gets []float64
	var hashes []string
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("perfbench-probe-", i)))
		h := hex.EncodeToString(sum[:])
		hashes = append(hashes, h)
		o := &jobs.Outcome{Hash: h, Spec: jobs.Spec{Kind: jobs.KindSingle, Graph: "lj"}, Single: &r, Finished: time.Now()}
		tr.begin("store.put")
		err := st.Put(o)
		puts = append(puts, ms(tr.end()))
		if err != nil {
			return err
		}
	}
	for _, h := range hashes {
		tr.begin("store.get")
		o := st.Get(h)
		gets = append(gets, float64(tr.end())/float64(time.Microsecond))
		if o == nil {
			return fmt.Errorf("store probe: %s not found after Put", h)
		}
	}
	tr.begin("store.open")
	reopened, err := jobs.OpenStore(dir)
	open := tr.end()
	if err != nil {
		return err
	}
	rep.check(reopened.Len() == n, "reopened probe store holds %d outcomes, want %d", reopened.Len(), n)
	rep.set("store.open_s", "s", open.Seconds())
	rep.set("store.put_ms", "ms", median(puts))
	rep.set("store.get_us", "us", median(gets))
	return nil
}

// probeEngine renders fig10a and corun at 1/256 scale on a fresh session
// where the workload itself does not render them, so both render metrics
// and the engine's prefetch are measured on every workload.
func probeEngine(tr *tracer, workload string, acc *tracedAcc) error {
	var exps []exp.Experiment
	for _, id := range []string{"fig10a", "corun"} {
		if workload == "daemon-mix" || !slices.Contains(engineWorkloads[workload].exps, id) {
			e, _ := exp.ByID(id)
			exps = append(exps, e)
		}
	}
	s := exp.NewSession(exp.ScaledConfig(256))
	if acc.engine == nil {
		acc.engine = s
	}
	return engineSection(tr, s, exps)
}
