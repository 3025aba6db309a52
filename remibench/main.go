// Command remibench is the repository's served benchmark. For one workload
// it generates a DBpedia-like KB from the seed, compiles it to a snapshot,
// launches remi-serve on it, drives the workload over loopback, checks
// every answer against goldens mined in process, and prints every metric by
// name with its unit; the last line of its output is one JSON object. With
// -trace 1 it then replays a fixed sample of the workload's requests through
// the layer ladder and prints the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds remi-serve
// and this command from source first:
//
//	bash remibench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
//
// See README.md next to this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	serveBin string
	workDir  string
	nproc    int
}

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose load generator fell behind its schedule.
var errInvalid = errors.New("invalid run")

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: interactive | hot | batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the KB, the write set and every request stream")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from the layer ladder instead of end-to-end metrics")
	flag.StringVar(&cfg.serveBin, "serve", ".bench_build/bin/remi-serve", "remi-serve binary")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "directory for the run's scratch files and trace output")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = kbScale
	cfg.nproc = runtime.NumCPU()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "remibench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// run performs one benchmark run and writes the report and result lines.
func run(cfg config, w io.Writer) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	work := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fx, err := newFixture(work, cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	b := &bench{cfg: cfg, fx: fx, work: work}
	out, err := b.runWorkload()
	if err != nil {
		return err
	}
	rep := b.report(out)
	line := resultLine{Metrics: map[string]metric{}}
	line.Attempted = len(out.warm) + len(out.measured)
	for _, rs := range [][]result{out.warm, out.measured} {
		for _, r := range rs {
			if r.err != nil {
				line.Failed++
			}
		}
	}
	if cfg.trace {
		lad, err := b.runLadder(out)
		if err != nil {
			return err
		}
		line.Metrics = lad.metrics
		line.Attempted += lad.attempted
		line.Failed += lad.failed
		rep["trace_file"] = lad.file
	} else {
		line.Metrics = b.endToEnd(out)
	}
	rep["fail_ratio"] = float64(line.Failed) / float64(line.Attempted)
	line.Correct = line.Failed == 0
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return err
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	if late, ok := rep["generator_late_ms"].(map[string]float64); ok && late["p99"] > ms(maxLateP99) {
		return fmt.Errorf("%w: generator lateness p99 %.3f ms exceeds the %.0f ms bound", errInvalid, late["p99"], ms(maxLateP99))
	}
	return enc.Encode(line)
}

// endToEnd derives the user-visible metrics of a run. The latency median
// is taken per second of the measured window and reported as its median
// over the seconds, so a host hiccup moves the seconds it falls in, not
// the run's figure. Throughput counts the sets answered correctly by the
// window's requests, over the time from the loop's start until the last of
// them, failed ones included, completed: a backlog still outstanding when
// the window ends lowers the rate by the time it takes to drain.
func (b *bench) endToEnd(out *runOut) map[string]metric {
	lat := make([][]time.Duration, b.cfg.seconds)
	sets := 0
	var last time.Duration
	for _, r := range out.measured {
		if i := int(r.start / time.Second); i < len(lat) {
			lat[i] = append(lat[i], r.lat)
		}
		if r.err == nil {
			sets += len(r.op.keys)
		}
		last = max(last, r.done)
	}
	var p50 []float64
	for _, ds := range lat {
		if len(ds) > 0 {
			p50 = append(p50, ms(quantile(ds, 0.50)))
		}
	}
	return map[string]metric{
		"setup_s":     {median(out.setup), "s"},
		"mine_p50_ms": {median(p50), "ms"},
		"sets_per_s":  {ratio(float64(sets), last.Seconds()), "1/s"},
		"rss_mb":      {median(out.rssSamples), "MiB"},
	}
}

// report is the run's stamp and bookkeeping: environment, KB size,
// sent/succeeded/failed counts per phase, generator lateness and the
// server's own counters.
func (b *bench) report(out *runOut) map[string]any {
	rep := map[string]any{
		"stamp":             stampOf(b.cfg, b.fx),
		"workload":          b.cfg.workload,
		"setup_s":           out.setup,
		"rss_peak_mb":       out.rssPeakMB,
		"golden_mismatches": out.mismatches,
		"distinct_sets":     out.distinct,
		"phases": map[string]any{
			"warmup":   phase(out.warm),
			"measured": phase(out.measured),
		},
		"server": map[string]any{
			"result_cache":  out.stats.ResultCache,
			"mining_runs":   out.stats.Mining.Runs,
			"deduped_hits":  out.stats.Mining.DedupedHits,
			"jobs_rejected": out.stats.Jobs.Rejected,
			"jobs_joined":   out.stats.Jobs.Joined,
			"avg_run_ms":    out.stats.Jobs.AvgRunMS,
		},
	}
	var late, backlog, reads []time.Duration
	for _, r := range out.measured {
		reads = append(reads, r.lat)
		if r.backlog > 0 {
			backlog = append(backlog, r.backlog)
		} else {
			late = append(late, r.late)
		}
	}
	rep["mine_ms"] = map[string]any{"samples": len(reads),
		"p50": ms(quantile(reads, 0.5)), "p90": ms(quantile(reads, 0.9)), "p99": ms(quantile(reads, 0.99)), "max": ms(quantile(reads, 1))}
	if b.cfg.workload != "batch" {
		rep["generator_late_ms"] = map[string]float64{
			"p50": ms(quantile(late, 0.5)), "p99": ms(quantile(late, 0.99)), "max": ms(quantile(late, 1)),
		}
		rep["backlogged"] = map[string]any{
			"requests": len(backlog), "p50_ms": ms(quantile(backlog, 0.5)), "max_ms": ms(quantile(backlog, 1)),
		}
	}
	return rep
}

func phase(rs []result) map[string]any {
	failed := 0
	var firstErr string
	for _, r := range rs {
		if r.err != nil {
			if failed == 0 {
				firstErr = r.err.Error()
			}
			failed++
		}
	}
	p := map[string]any{"sent": len(rs), "succeeded": len(rs) - failed, "failed": failed}
	if firstErr != "" {
		p["first_error"] = firstErr
	}
	return p
}

// quantile is the nearest-rank q-quantile (q=1 gives the maximum); 0 for
// no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
