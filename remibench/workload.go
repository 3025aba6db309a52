package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server"
)

// Workload shapes; the README gives the reason for each. The open-loop
// rates sit far below the ≈3.6k sets/s two closed-loop clients reach on the
// scale-4 KB, so the loops measure latency rather than queueing.
const (
	kbScale         = 4     // datagen.DBpediaLike scale of the shared KB
	interactiveRate = 400.0 // /v1/mine requests per second
	hotRate         = 400.0
	prEvery         = 4 // every prEvery-th interactive read uses metric "pr"
	hotPerClass     = 16
	hotZipfS        = 1.0
	batchSets       = 64
	batchTopK       = 3
	factCount       = 8 // |F|, the write set of the traced run's write rungs
	setupLaunches   = 5 // setup_s is the median over this many launches
	warmSeconds     = 1 // open-loop warm-up, in seconds of the workload's rate
	rssEvery        = 100 * time.Millisecond
	// maxLateP99 bounds the generator's own lateness: a run whose timer
	// fired later than this at the 99th percentile did not offer the
	// scheduled load and is rejected.
	maxLateP99 = 25 * time.Millisecond
)

var workloadNames = []string{"interactive", "hot", "batch"}

const factsPath = "/v1/kb/" + server.DefaultKBName + "/facts"

type bench struct {
	cfg      config
	fx       *fixture
	work     string
	launches int
}

// runOut is everything one served run observed.
type runOut struct {
	setup      []float64 // seconds per launch
	warm       []result
	measured   []result  // the timed window
	rssSamples []float64 // VmRSS every rssEvery during the measured window
	rssPeakMB  float64   // VmHWM at the end of the window
	stats      server.StatsResponse
	mismatches int
	distinct   int
}

func (b *bench) launch() (*served, time.Duration, error) {
	b.launches++
	return launch(b.cfg.serveBin, filepath.Join(b.work, fmt.Sprintf("serve-%d.log", b.launches)), "-kb", b.fx.snap)
}

// runWorkload launches remi-serve setupLaunches times (the last launch
// serves), warms it up, drives the measured window, and golden-checks every
// answer after the server is gone, so the checks take no CPU from it.
func (b *bench) runWorkload() (*runOut, error) {
	out := &runOut{}
	var srv *served
	// Collect the fixture's garbage now, so no background GC of this
	// process competes with the launches being timed.
	runtime.GC()
	for i := 0; i < setupLaunches; i++ {
		s, d, err := b.launch()
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, d.Seconds())
		if i < setupLaunches-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up launch: %w", err)
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	warm, ops, src, err := b.plan()
	if err != nil {
		return nil, err
	}
	drv := newLoadgen(srv.base, b.cfg.nproc)
	defer drv.close()
	// The first warm-up op goes alone: for interactive it is the pr request
	// whose lazy PageRank build must finish before timing.
	first, err := drv.closedLoop(listSource(warm[:1]), 0)
	if err != nil {
		return nil, err
	}
	rest, err := drv.closedLoop(listSource(warm[1:]), 0)
	if err != nil {
		return nil, err
	}
	out.warm = append(first, rest...)

	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() {
		var xs []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stopRSS:
				rssDone <- xs
				return
			case <-t.C:
				if v, err := srv.rssMB(); err == nil {
					xs = append(xs, v)
				}
			}
		}
	}()
	if src != nil {
		out.measured, err = drv.closedLoop(src, time.Duration(b.cfg.seconds)*time.Second)
	} else {
		out.measured = drv.openLoop(ops)
	}
	close(stopRSS)
	out.rssSamples = <-rssDone
	if err != nil {
		return nil, err
	}
	if err := getJSON(drv.client, srv.base+"/v1/stats", &out.stats); err != nil {
		return nil, err
	}
	if out.stats.Jobs == nil {
		return nil, fmt.Errorf("/v1/stats has no jobs section")
	}
	if out.rssPeakMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	return out, b.checkGoldens(out)
}

// plan builds the workload's warm-up ops and either its open-loop schedule
// or, for batch, a closed-loop source.
func (b *bench) plan() (warm, ops []*op, src func() (*op, error), err error) {
	seed, secs := b.cfg.seed, float64(b.cfg.seconds)
	switch b.cfg.workload {
	case "interactive":
		stream := newSetStream(b.fx.env, seed)
		mixed := func(i int) (*op, error) {
			set, err := stream.next()
			if err != nil {
				return nil, err
			}
			metric := "fr"
			if i%prEvery == prEvery-1 {
				metric = "pr"
			}
			return b.readOp(set, metric), nil
		}
		set, err := stream.next()
		if err != nil {
			return nil, nil, nil, err
		}
		warm = append(warm, b.readOp(set, "pr"))
		for i := 0; i < int(interactiveRate*warmSeconds); i++ {
			o, err := mixed(i)
			if err != nil {
				return nil, nil, nil, err
			}
			warm = append(warm, o)
		}
		n := int(interactiveRate * secs)
		for i := 0; i < n; i++ {
			o, err := mixed(i)
			if err != nil {
				return nil, nil, nil, err
			}
			o.due = time.Duration(float64(i) / interactiveRate * float64(time.Second))
			ops = append(ops, o)
		}
	case "hot":
		stream := newHotStream(b.fx, seed)
		for i := 0; i < int(hotRate*warmSeconds); i++ {
			warm = append(warm, b.readOp(stream.next(), "fr"))
		}
		n := int(hotRate * secs)
		for i := 0; i < n; i++ {
			o := b.readOp(stream.next(), "fr")
			o.due = time.Duration(float64(i) / hotRate * float64(time.Second))
			ops = append(ops, o)
		}
	case "batch":
		stream := newSetStream(b.fx.env, seed)
		nextBatch := func() (*op, error) {
			sets := make([][]string, batchSets)
			for i := range sets {
				s, err := stream.next()
				if err != nil {
					return nil, err
				}
				sets[i] = s
			}
			return b.batchOp(sets), nil
		}
		for i := 0; i < b.cfg.nproc; i++ {
			o, err := nextBatch()
			if err != nil {
				return nil, nil, nil, err
			}
			warm = append(warm, o)
		}
		src = nextBatch
	default:
		return nil, nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", b.cfg.workload, workloadNames)
	}
	return warm, ops, src, nil
}

func (b *bench) readOp(set []string, metric string) *op {
	req := server.MineRequest{Targets: set}
	if metric == "pr" {
		req.Metric = "pr"
	}
	body, _ := json.Marshal(req) // plain strings: cannot fail
	return &op{path: "/v1/mine", body: body, keys: []goldenKey{{metric: metric, set: setKey(set)}}}
}

func (b *bench) batchOp(sets [][]string) *op {
	body, _ := json.Marshal(server.BatchMineRequest{Sets: sets, TopK: batchTopK})
	keys := make([]goldenKey, len(sets))
	for i, s := range sets {
		keys[i] = goldenKey{metric: "fr", topK: batchTopK, set: setKey(s)}
	}
	return &op{path: "/v1/mine:batch", body: body, keys: keys}
}

func (b *bench) writeOp(retract bool) *op {
	body, _ := json.Marshal(b.fx.factsBody(retract))
	return &op{path: factsPath, body: body, write: len(b.fx.facts)}
}

// checkGoldens mines the goldens of every set the run asked about and
// fails every answer that does not match its golden.
func (b *bench) checkGoldens(out *runOut) error {
	keys := map[goldenKey]bool{}
	for _, rs := range [][]result{out.warm, out.measured} {
		for _, r := range rs {
			for _, k := range r.op.keys {
				keys[k] = true
			}
		}
	}
	out.distinct = len(keys)
	base, err := remi.Load(b.fx.snap)
	if err != nil {
		return err
	}
	defer base.Close()
	g, err := mineGoldens(base, keys)
	if err != nil {
		return err
	}
	out.mismatches = check(out.warm, g) + check(out.measured, g)
	return nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
