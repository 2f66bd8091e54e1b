package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"grasp/internal/exp"
)

// The engine workloads run exp.RunAll on a fresh exp.Session, as
// `graspsim -exp` does, at a reduced scale on the program's fixed built-in
// datasets (no input depends on --seed).
// hitReps is how many warm re-runs each round times.
var engineWorkloads = map[string]struct {
	scale   uint32
	hitReps int
	exps    []string
}{
	"paper-figures": {64, 1, []string{"table1", "table4", "fig2", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10a", "fig10b", "fig11", "table7"}},
	"corun-mix": {64, 10, []string{"corun"}},
}

// setupProbes is how many extra set-up-only child processes each engine
// run starts, so setup_s is a median over several set-ups.
const setupProbes = 10

// roundReport is what one engine child prints as its last line.
type roundReport struct {
	WallS      float64   `json:"wall_s"`
	ArtifactMs []float64 `json:"artifact_ms"` // RunAll start -> each artifact written
	HitMs      []float64 `json:"hit_ms"`      // each warm RunAll on the same session
	Errors     int       `json:"errors"`
	Problems   []string  `json:"problems"`
	SimRuns    uint64    `json:"sim_runs"`
	Broadcasts uint64    `json:"broadcasts"`
	TraceBytes int64     `json:"trace_bytes"`
}

// engineChild runs one round in this process: set up a session, say
// "ready", render every artifact cold with exp.RunAll, run RunAll again on
// the warm session, optionally check the outputs, and print the round's
// report.
func engineChild(workload string, setupOnly, checks bool) error {
	wl, ok := engineWorkloads[workload]
	if !ok {
		return fmt.Errorf("unknown engine workload %q", workload)
	}
	s := exp.NewSession(exp.ScaledConfig(wl.scale))
	var exps []exp.Experiment
	for _, id := range wl.exps {
		e, err := exp.ByID(id)
		if err != nil {
			return err
		}
		exps = append(exps, e)
	}
	fmt.Println("ready")
	if setupOnly {
		return nil
	}
	var rr roundReport
	outputs := make(map[string]*bytes.Buffer)
	var cur *bytes.Buffer
	start := time.Now()
	obs := exp.RunObserver{
		Before: func(e exp.Experiment) { cur = new(bytes.Buffer); outputs[e.ID] = cur },
		After: func(e exp.Experiment, _ time.Duration) {
			rr.ArtifactMs = append(rr.ArtifactMs, ms(time.Since(start)))
		},
	}
	err := exp.RunAll(s, exps, writerFunc(func(p []byte) (int, error) { return cur.Write(p) }), obs)
	rr.WallS = time.Since(start).Seconds()
	if err != nil {
		rr.Errors = len(exps) - len(rr.ArtifactMs)
		rr.Problems = append(rr.Problems, "RunAll: "+err.Error())
	}
	// Hits: the same RunAll again on the now warm session, which answers
	// every declared result from its memo (fig10a still times native
	// runs, and fig11/table7 rerun the OPT study). Each must print the
	// same bytes as the cold run (fig10a prints its timings).
	for rep := 0; rep < wl.hitReps; rep++ {
		warm := make(map[string]*bytes.Buffer)
		obs.Before = func(e exp.Experiment) { cur = new(bytes.Buffer); warm[e.ID] = cur }
		obs.After = nil
		t := time.Now()
		if err := exp.RunAll(s, exps, writerFunc(func(p []byte) (int, error) { return cur.Write(p) }), obs); err != nil {
			rr.Errors += len(exps)
			rr.Problems = append(rr.Problems, "warm RunAll: "+err.Error())
			continue
		}
		rr.HitMs = append(rr.HitMs, ms(time.Since(t)))
		for id, b := range warm {
			if cold := outputs[id]; id != "fig10a" && (cold == nil || !bytes.Equal(cold.Bytes(), b.Bytes())) {
				rr.Problems = append(rr.Problems, id+": warm re-render differs from the cold output")
			}
		}
	}
	rr.SimRuns, rr.Broadcasts, rr.TraceBytes = s.SimRuns(), s.Broadcasts(), s.TraceBytesRetained()
	if checks && rr.Errors == 0 {
		rep := newReport()
		text := make(map[string]string)
		for id, b := range outputs {
			text[id] = b.String()
		}
		if workload == "corun-mix" {
			checkCorun(s, rep)
		} else {
			checkPaperFigures(s, exps, text, rep)
		}
		rr.Problems = append(rr.Problems, rep.problems...)
	}
	b, err := json.Marshal(rr)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// childRun is what the parent observes of one child process.
type childRun struct {
	setup  time.Duration // exec until the child said "ready"
	rssKB  int64         // the child's peak resident set
	report roundReport
}

// spawnChild starts this binary as an engine child and waits for it.
func spawnChild(workload string, extra ...string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(self, append([]string{"-child", workload}, extra...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var cr childRun
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" && cr.setup == 0 {
			cr.setup = time.Since(start)
			continue
		}
		if last != "" {
			fmt.Println(last) // the child's info lines; its report comes last
		}
		last = line
	}
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("engine child: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssKB = ru.Maxrss
	}
	if cr.setup == 0 {
		return childRun{}, fmt.Errorf("engine child never became ready")
	}
	if last != "" {
		if err := json.Unmarshal([]byte(last), &cr.report); err != nil {
			return childRun{}, fmt.Errorf("engine child report: %w", err)
		}
	}
	return cr, nil
}

// engineRun measures an engine workload: setup probes, then whole rounds
// (one fresh child process each) until the requested seconds have passed.
// Outputs are checked on the first round.
func engineRun(workload string, seconds int, rep *report) error {
	wl := engineWorkloads[workload]
	var setups, walls, rss, artifact, hit []float64
	for i := 0; i < setupProbes; i++ {
		cr, err := spawnChild(workload, "-setup-only")
		if err != nil {
			return err
		}
		setups = append(setups, cr.setup.Seconds())
	}
	var renders, renderWall float64
	var last roundReport
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin) < time.Duration(seconds)*time.Second; round++ {
		args := []string{}
		if round == 0 {
			args = append(args, "-check")
		}
		cr, err := spawnChild(workload, args...)
		if err != nil {
			return err
		}
		r := cr.report
		last = r
		rep.attempted += len(wl.exps) * (1 + wl.hitReps)
		rep.failed += r.Errors
		rep.problems = append(rep.problems, r.Problems...)
		setups = append(setups, cr.setup.Seconds())
		walls = append(walls, r.WallS)
		rss = append(rss, float64(cr.rssKB)/1024)
		artifact = append(artifact, r.ArtifactMs...)
		hit = append(hit, r.HitMs...)
		renders += float64(len(r.ArtifactMs))
		renderWall += r.WallS
		info("round %d: wall %.3fs setup %.1fms rss %.1fMB sim_runs %d broadcasts %d trace_bytes %d",
			round, r.WallS, cr.setup.Seconds()*1000, float64(cr.rssKB)/1024, r.SimRuns, r.Broadcasts, r.TraceBytes)
	}
	rep.attempted += setupProbes
	info("scale 1/%d, experiments %s, rounds %d", wl.scale, strings.Join(wl.exps, ","), len(walls))
	info("samples: setup %d, wall %d, artifact %d, hit %d", len(setups), len(walls), len(artifact), len(hit))
	info("wall_s across rounds: quartiles %.4f, spread %.4f", quartiles(walls), spread(walls))
	info("engine counters (last round): sim_runs %d, broadcast groups %d, trace bytes retained %d",
		last.SimRuns, last.Broadcasts, last.TraceBytes)
	rep.set("setup_s", "s", median(setups))
	rep.set("wall_s", "s", median(walls))
	rep.set("peak_rss_mb", "MB", median(rss))
	rep.set("jobs_per_s", "1/s", renders/renderWall)
	rep.set("cold_p50_ms", "ms", percentile(artifact, 50))
	rep.set("cold_p90_ms", "ms", percentile(artifact, 90))
	rep.set("hit_p50_ms", "ms", percentile(hit, 50))
	info("%s", latencyLine("cold (RunAll start to artifact)", artifact))
	info("%s", latencyLine("hit (warm RunAll)", hit))
	return nil
}
