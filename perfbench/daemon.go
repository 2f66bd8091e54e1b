package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"grasp/internal/apps"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/jobs"
	"grasp/internal/server"
	"grasp/internal/sim"
)

// daemon-mix: one client with two connections runs a closed loop against a
// spawned graspd (default worker count) on a fresh data directory:
// cold full-fidelity jobs, sampled jobs, concurrent duplicate pairs and
// repeated hit rounds; then SIGTERM, drain, a restart on the same data
// directory, and a second round of hits. Each round starts a new daemon on
// a new directory so its cold jobs are cold.

const (
	conns        = 2
	hitRounds1   = 30 // hit rounds over every distinct spec, first lifetime
	hitRounds2   = 10 // after the restart
	restartProbe = 3  // extra boot-only restarts per round, for setup_s
	fileVertices = 8192
	fileDegree   = 8
	checkSample  = 4 // cold outcomes re-simulated in-process after the timed window
)

// mixSpecs is the job list of one round.
type mixSpecs struct {
	cold, sampled, dups []jobs.Spec
}

func (m mixSpecs) distinct() int { return len(m.cold) + len(m.sampled) + len(m.dups) }

// buildSpecs lays out the job mix over the built-in datasets and the two
// seeded graph files.
func buildSpecs(pow, uni string) mixSpecs {
	var m mixSpecs
	single := func(g, app, pol string, scale uint32) jobs.Spec {
		return jobs.Spec{Kind: jobs.KindSingle, Graph: g, App: app, Policy: pol, Reorder: "DBG", Scale: scale}
	}
	pols := []string{"LRU", "RRIP", "GRASP"}
	for _, d := range graph.Datasets() {
		for _, app := range []string{"PR", "BFS"} {
			for _, p := range pols {
				m.cold = append(m.cold, single(d.Name, app, p, 16))
			}
		}
	}
	for _, f := range []string{pow, uni} {
		for _, app := range []string{"PR", "BFS", "SSSP"} {
			for _, p := range pols {
				m.cold = append(m.cold, single(f, app, p, 16))
			}
		}
	}
	// Full-fidelity twins of the sampled jobs that are not already above.
	m.cold = append(m.cold, single("lj", "PR", "RRIP", 8), single(pow, "PR", "RRIP", 2), single(uni, "PR", "RRIP", 2))
	// One fixed shuffle interleaves cheap and costly jobs; it does not
	// depend on the seed, so seeds differ only in the graph files' edges.
	shuffled := make([]jobs.Spec, len(m.cold))
	for i, j := range graph.NewRNG(1).Perm(len(m.cold)) {
		shuffled[i] = m.cold[j]
	}
	m.cold = shuffled
	sampled := func(s jobs.Spec, k uint32) jobs.Spec {
		s.Fidelity, s.SampleK = jobs.FidelitySampled, k
		return s
	}
	m.sampled = []jobs.Spec{
		// Default K=16. The file graphs at scale 2 have a 32-set LLC, so
		// K=16 is realized (2 of 32 sets); lj at 1/8 and tw at 1/16 have
		// 8 and 4 sets, where the sampler clamps to 2 sets.
		sampled(single(pow, "PR", "RRIP", 2), 0),
		sampled(single(uni, "PR", "RRIP", 2), 0),
		sampled(single("lj", "PR", "RRIP", 8), 0),
		sampled(single("tw", "PR", "GRASP", 16), 0),
		// K=1 simulates every set: equal to full fidelity.
		sampled(single(pow, "BFS", "GRASP", 16), 1),
		sampled(single("kr", "PR", "LRU", 16), 1),
	}
	for _, g := range []string{"lj", "tw", pow, uni} {
		m.dups = append(m.dups, single(g, "PR", "SHiP-MEM", 16))
	}
	return m
}

// writeGraphFiles writes the seeded power-law and uniform edge lists.
func writeGraphFiles(dir string, seed int64) (pow, uni string, err error) {
	pow, uni = filepath.Join(dir, "powerlaw.el"), filepath.Join(dir, "uniform.el")
	if err := writeEdgeList(pow, genEdges(seed, true)); err != nil {
		return "", "", err
	}
	return pow, uni, writeEdgeList(uni, genEdges(seed+1, false))
}

// genEdges draws fileVertices*fileDegree directed edges. With skew, edge
// destinations follow a Zipf(1) law over a seeded shuffle of the vertex
// IDs, so a few vertices take most in-edges; otherwise both ends are
// uniform.
func genEdges(seed int64, skew bool) [][2]uint32 {
	rng := graph.NewRNG(uint64(seed)*0x9e3779b97f4a7c15 + 1)
	n := uint32(fileVertices)
	var cdf []float64
	var ids []uint32
	if skew {
		cdf = make([]float64, n)
		t := 0.0
		for i := range cdf {
			t += 1 / float64(i+1)
			cdf[i] = t
		}
		ids = rng.Perm(int(n))
	}
	edges := make([][2]uint32, 0, int(n)*fileDegree)
	for len(edges) < cap(edges) {
		src := rng.Uint32n(n)
		dst := rng.Uint32n(n)
		if skew {
			dst = ids[sort.SearchFloat64s(cdf, rng.Float64()*cdf[n-1])]
		}
		edges = append(edges, [2]uint32{src, dst})
	}
	return edges
}

func writeEdgeList(path string, edges [][2]uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range edges {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemonProc is one spawned graspd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	boot time.Duration // exec until the first 200 from /readyz
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs graspd on dataDir and waits until /readyz answers 200.
func startDaemon(bin, dataDir, logPath string) (*daemonProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemonProc{base: fmt.Sprintf("http://127.0.0.1:%d", port), log: lf}
	d.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data", dataDir)
	d.cmd.Stdout, d.cmd.Stderr = lf, lf
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.boot = time.Since(start)
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("graspd did not become ready within 30s (log: %s)", logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the drain and returns the peak RSS in KB.
func (d *daemonProc) stop() (int64, error) {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("graspd exit: %w", err)
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss, nil
	}
	return 0, nil
}

// kill ends the daemon without a drain (error paths only).
func (d *daemonProc) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
	d.log.Close()
}

// client is the load generator's HTTP client: at most two connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// submit posts one waiting submission and returns the response body.
func submit(c *http.Client, base string, spec jobs.Spec) ([]byte, time.Duration, error) {
	body, err := json.Marshal(server.SubmitRequest{Spec: spec, Wait: true})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("POST /jobs %s %s: %d %s", spec.Graph, spec.Policy, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, lat, nil
}

// getJSON fetches a JSON document.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the named counters from /metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && strings.HasPrefix(f[0], "graspd_") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[strings.TrimPrefix(f[0], "graspd_")] = v
			}
		}
	}
	return out, sc.Err()
}

// mixRun accumulates a daemon-mix run's samples.
type mixRun struct {
	setups, walls, rss []float64
	cold, hit, dup     []float64 // ms
	completed          int
	serving            time.Duration
	answers            map[string][]byte // spec key -> first answer
}

func specKey(s jobs.Spec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// dupPair submits spec on every connection at once.
func dupPair(c *http.Client, base string, spec jobs.Spec) (bodies [conns][]byte, lats [conns]time.Duration, errs [conns]error) {
	parallel(conns, func(w int) { bodies[w], lats[w], errs[w] = submit(c, base, spec) })
	return bodies, lats, errs
}

// parallel runs fn on n goroutines, passing each its index, and waits for
// them.
func parallel(n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); fn(w) }(w)
	}
	wg.Wait()
}

// closedLoop submits every spec once over conns workers pulling from a
// shared queue, calling done with each answer.
func closedLoop(c *http.Client, base string, specs []jobs.Spec, done func(s jobs.Spec, body []byte, lat time.Duration, err error)) {
	next := make(chan jobs.Spec, len(specs))
	for _, s := range specs {
		next <- s
	}
	close(next)
	var mu sync.Mutex
	parallel(conns, func(int) {
		for s := range next {
			body, lat, err := submit(c, base, s)
			mu.Lock()
			done(s, body, lat, err)
			mu.Unlock()
		}
	})
}

// hitLoop resubmits every distinct spec rounds times and checks each
// answer is byte-identical to the spec's first answer.
func hitLoop(c *http.Client, base string, all []jobs.Spec, rounds int, run *mixRun, rep *report) {
	var specs []jobs.Spec
	for r := 0; r < rounds; r++ {
		specs = append(specs, all...)
	}
	closedLoop(c, base, specs, func(s jobs.Spec, body []byte, lat time.Duration, err error) {
		rep.attempted++
		if err != nil {
			rep.failed++
			info("hit failed: %v", err)
			return
		}
		run.completed++
		run.hit = append(run.hit, ms(lat))
		if !bytes.Equal(body, run.answers[specKey(s)]) {
			rep.check(false, "hit for %s %s %s differs from its cold answer", s.Graph, s.App, s.Policy)
		}
	})
}

// daemonRound runs one full round on a fresh data directory.
func daemonRound(bin, dir string, m mixSpecs, run *mixRun, rep *report) error {
	data := filepath.Join(dir, "data")
	logPath := filepath.Join(dir, "graspd.log")
	c := newClient()
	defer c.CloseIdleConnections()
	roundStart := time.Now()
	d, err := startDaemon(bin, data, logPath)
	if err != nil {
		return err
	}
	defer d.kill()
	all := append(append(append([]jobs.Spec{}, m.cold...), m.sampled...), m.dups...)
	first := time.Now()
	record := func(s jobs.Spec, body []byte, lat time.Duration, err error) {
		rep.attempted++
		if err != nil {
			rep.failed++
			info("cold job failed: %v", err)
			return
		}
		run.completed++
		run.cold = append(run.cold, ms(lat))
		run.answers[specKey(s)] = body
	}
	closedLoop(c, d.base, m.cold, record)
	closedLoop(c, d.base, m.sampled, record)
	// Duplicate pairs: both connections submit the same new spec at once.
	for _, s := range m.dups {
		bodies, lats, errs := dupPair(c, d.base, s)
		for w := range bodies {
			rep.attempted++
			if errs[w] != nil {
				rep.failed++
				info("duplicate job failed: %v", errs[w])
				continue
			}
			run.completed++
			run.dup = append(run.dup, ms(lats[w]))
		}
		run.answers[specKey(s)] = bodies[0]
		rep.check(bytes.Equal(bodies[0], bodies[1]), "duplicate pair %s %s answered differently", s.Graph, s.Policy)
	}
	hitLoop(c, d.base, all, hitRounds1, run, rep)
	run.serving += time.Since(first)
	met, err := scrape(c, d.base)
	if err != nil {
		return err
	}
	rep.check(int(met["jobs_executed_total"]) == m.distinct(), "first lifetime executed %v jobs for %d distinct specs", met["jobs_executed_total"], m.distinct())
	c.CloseIdleConnections()
	rss1, err := d.stop()
	if err != nil {
		return err
	}

	d2, err := startDaemon(bin, data, logPath)
	if err != nil {
		return err
	}
	defer d2.kill()
	run.setups = append(run.setups, d2.boot.Seconds())
	first = time.Now()
	hitLoop(c, d2.base, all, hitRounds2, run, rep)
	run.serving += time.Since(first)
	met, err = scrape(c, d2.base)
	if err != nil {
		return err
	}
	rep.check(met["jobs_executed_total"] == 0, "restarted daemon executed %v jobs; every answer should come from the store", met["jobs_executed_total"])
	c.CloseIdleConnections()
	rss2, err := d2.stop()
	if err != nil {
		return err
	}
	run.walls = append(run.walls, time.Since(roundStart).Seconds())
	run.rss = append(run.rss, float64(max(rss1, rss2))/1024)
	for i := 0; i < restartProbe; i++ {
		p, err := startDaemon(bin, data, logPath)
		if err != nil {
			return err
		}
		run.setups = append(run.setups, p.boot.Seconds())
		if _, err := p.stop(); err != nil {
			return err
		}
	}
	rep.attempted += 1 + restartProbe
	return nil
}

// daemonMix measures the daemon workload end to end.
func daemonMix(seed int64, seconds int, bin string, rep *report) error {
	if bin == "" {
		return fmt.Errorf("daemon-mix needs -graspd")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "daemon-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return err
	}
	pow, uni, err := writeGraphFiles(tmp, seed)
	if err != nil {
		return err
	}
	m := buildSpecs(pow, uni)
	describeMix(m, pow, uni)
	run := &mixRun{answers: make(map[string][]byte)}
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin) < time.Duration(seconds)*time.Second; round++ {
		dir := filepath.Join(tmp, fmt.Sprintf("round-%d", round))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		run.answers = make(map[string][]byte)
		if err := daemonRound(bin, dir, m, run, rep); err != nil {
			return err
		}
		info("round %d: wall %.3fs, restart boot %.1fms", round, run.walls[round], run.setups[len(run.setups)-1-restartProbe]*1000)
	}
	checkDaemonAnswers(seed, m, run.answers, rep)
	info("samples: setup %d, wall %d, cold %d, hit %d, duplicate %d", len(run.setups), len(run.walls), len(run.cold), len(run.hit), len(run.dup))
	info("wall_s across rounds: quartiles %.4f, spread %.4f", quartiles(run.walls), spread(run.walls))
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"cold", run.cold}, {"hit", run.hit}, {"duplicate pair", run.dup}} {
		info("%s", latencyLine(l.name, l.xs))
	}
	rep.set("setup_s", "s", median(run.setups))
	rep.set("wall_s", "s", median(run.walls))
	rep.set("peak_rss_mb", "MB", median(run.rss))
	rep.set("jobs_per_s", "1/s", float64(run.completed)/run.serving.Seconds())
	rep.set("cold_p50_ms", "ms", percentile(run.cold, 50))
	rep.set("cold_p90_ms", "ms", percentile(run.cold, 90))
	rep.set("hit_p50_ms", "ms", percentile(run.hit, 50))
	return nil
}

// describeMix prints the job list's make-up.
func describeMix(m mixSpecs, pow, uni string) {
	for _, f := range []string{pow, uni} {
		g, err := graph.ReadGraphFile(f)
		if err != nil {
			info("graph file %s: %v", f, err)
			continue
		}
		sk := graph.InSkew(g)
		info("graph file %s: %d vertices, %d edges, in-degree skew %+v", filepath.Base(f), g.NumVertices(), g.NumEdges(), sk)
	}
	info("jobs per round: %d cold, %d sampled, %d duplicate pairs, %d+%d hit rounds over %d specs",
		len(m.cold), len(m.sampled), len(m.dups), hitRounds1, hitRounds2, m.distinct())
}

// checkDaemonAnswers checks the last round's answers after the timed
// window: a seeded sample of cold outcomes against an in-process
// sim.RunCtx of the same spec, and every sampled outcome against its
// full-fidelity twin.
func checkDaemonAnswers(seed int64, m mixSpecs, answers map[string][]byte, rep *report) {
	outcome := func(s jobs.Spec) (*jobs.Outcome, error) {
		var o jobs.Outcome
		if err := json.Unmarshal(answers[specKey(s)], &o); err != nil {
			return nil, fmt.Errorf("decoding answer for %s %s %s: %w", s.Graph, s.App, s.Policy, err)
		}
		return &o, nil
	}
	rng := graph.NewRNG(uint64(seed) + 7)
	for _, i := range rng.Perm(len(m.cold))[:checkSample] {
		s := m.cold[i]
		o, err := outcome(s)
		if err != nil || o.Single == nil {
			rep.check(false, "cold answer for %s %s %s has no full-fidelity result (%v)", s.Graph, s.App, s.Policy, err)
			continue
		}
		r, err := simulateSpec(s)
		if err != nil {
			rep.checkErr(err)
			continue
		}
		rep.checkErr(checkSameSim(*o.Single, r, fmt.Sprintf("graspd vs in-process %s %s %s 1/%d", filepath.Base(s.Graph), s.App, s.Policy, s.Scale)))
	}
	for _, s := range m.sampled {
		o, err := outcome(s)
		if err != nil || o.Sampled == nil {
			rep.check(false, "sampled answer for %s %s has no estimate (%v)", s.Graph, s.App, err)
			continue
		}
		full := s
		full.Fidelity, full.SampleK = "", 0
		fo, err := outcome(full)
		if err != nil || fo.Single == nil {
			rep.check(false, "no full-fidelity twin for sampled %s %s (%v)", s.Graph, s.App, err)
			continue
		}
		est := o.Sampled.Est
		realized := float64(est.TotalSets) / math.Max(1, float64(est.SampledSets))
		info("sampled %s %s %s 1/%d: requested K=%d, realized K=%g (%d/%d sets)",
			filepath.Base(s.Graph), s.App, s.Policy, s.Scale, o.Sampled.SampleK, realized, est.SampledSets, est.TotalSets)
		rep.checkErr(checkSampled(*o.Sampled, *fo.Single, "sampled "+filepath.Base(s.Graph)+" "+s.App))
	}
}

// simulateSpec runs a full-fidelity single job in this process, straight
// through sim.RunCtx, the way graspd's direct path does.
func simulateSpec(s jobs.Spec) (sim.Result, error) {
	ds, err := graph.Resolve(s.Graph)
	if err != nil {
		return sim.Result{}, err
	}
	weighted := s.App == "SSSP"
	w, err := sim.PrepareWorkload(ds, s.Reorder, weighted, s.Scale)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := exp.DefaultConfig()
	if s.Scale > 1 {
		cfg = exp.ScaledConfig(s.Scale)
	}
	return sim.RunCtx(context.Background(), w, sim.Spec{App: s.App, Layout: apps.LayoutMerged, Policy: s.Policy, HCfg: cfg.HCfg})
}
