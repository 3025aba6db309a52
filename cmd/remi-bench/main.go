// Command remi-bench regenerates the paper's tables and in-text findings on
// the synthetic datasets (see DESIGN.md for the per-experiment index; the
// BENCH_*.json snapshots at the repository root record measured values).
//
// Usage:
//
//	remi-bench table2                 # Table 2: precision@k of Ĉ vs users
//	remi-bench map                    # §4.1.2: MAP + fr/pr preference
//	remi-bench scores                 # §4.1.3: 1–5 perceived quality
//	remi-bench table3                 # Table 3: entity summarization
//	remi-bench table4                 # Table 4: AMIE+ vs REMI vs P-REMI
//	remi-bench fit                    # Eq. 1 power-law fit quality (R²)
//	remi-bench searchspace            # §3.2 language-bias census
//	remi-bench all                    # everything above
//	remi-bench bench -label after     # perf trajectory snapshot (BENCH_<date>.json)
//
// Common flags: -seed, -scale (dataset size multiplier), -sets, -timeout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/remi-kb/remi/internal/experiments"
)

func main() {
	// Hidden re-exec entry point for the kb_scale phase: build one KB in a
	// child process so the parent can read its peak RSS from the kernel.
	if len(os.Args) > 1 && os.Args[1] == "_build" {
		kbScaleChildMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "_spawn" {
		kbScaleSpawnMain(os.Args[2:])
		return
	}
	var (
		seed    = flag.Int64("seed", 42, "experiment seed")
		scale   = flag.Float64("scale", 0.25, "dataset scale multiplier")
		sets    = flag.Int("sets", 0, "entity sets for table2/map/table4 (0 = experiment default)")
		timeout = flag.Duration("timeout", 10*time.Second, "per-set timeout for table4")
		workers = flag.Int("workers", 0, "P-REMI/AMIE workers for table4 (0 = NumCPU)")
		kbscale = flag.Float64("kbscale", 1.0, "bench: dataset scale for the kb_scale streaming-ingestion phase (0 disables; RSS bound meaningful from 1.0 up)")
		jsonOut = flag.String("json", "", "bench: output file (default BENCH_<date>.json; appended when present)")
		label   = flag.String("label", "run", "bench: snapshot label recorded in the JSON output")
		compare = flag.String("compare", "", "bench: diff two snapshot labels (\"base,after\" or \"latest\") instead of running; non-zero exit on >15% ns/op regression")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nsubcommands: table2 map scores table3 table4 fit searchspace all")
		os.Exit(2)
	}

	lab := experiments.NewLab(*seed, *scale)
	run := func(name string, fn func()) {
		fmt.Printf("\n════════ %s ════════\n", name)
		start := time.Now()
		fn()
		fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	}

	table2 := func() {
		cfg := experiments.DefaultTable2Config()
		if *sets > 0 {
			cfg.Sets = *sets
		}
		rows := experiments.Table2With(lab, cfg)
		fmt.Println("Table 2 — precision@k of Ĉ's subgraph-expression ranking vs simulated users")
		fmt.Printf("%-6s %10s %14s %14s %14s\n", "metric", "#responses", "p@1", "p@2", "p@3")
		for _, r := range rows {
			fmt.Printf("%-6s %10d %8.2f±%.2f %8.2f±%.2f %8.2f±%.2f\n",
				r.Metric, r.Responses, r.P1, r.P1Std, r.P2, r.P2Std, r.P3, r.P3Std)
		}
		fmt.Println("paper:  Ĉfr 44 responses  0.38±0.42  0.66±0.18  0.88±0.09")
		fmt.Println("        Ĉpr 48 responses  0.43±0.42  0.53±0.25  0.72±0.16")
	}

	mapStudy := func() {
		cfg := experiments.DefaultMAPConfig()
		if *sets > 0 {
			cfg.Sets = *sets
		}
		res := experiments.Section412With(lab, cfg)
		fmt.Println("§4.1.2 — users rank REMI's answer among alternative REs (MAP, single relevant)")
		fmt.Printf("MAP = %.2f±%.2f over %d answers on %d sets (paper: 0.64±0.17 on 51 answers)\n",
			res.MAP, res.Std, res.Answers, res.SetsUsed)
		fmt.Printf("fr-vs-pr: same RE on %d sets; %.0f%% of users prefer the Ĉfr solution (paper: 6 sets; 59%%)\n",
			res.AgreeSets, res.PreferFrPct)
	}

	scores := func() {
		res := experiments.Section413With(lab, experiments.DefaultScoreConfig())
		fmt.Println("§4.1.3 — perceived quality of Wikidata REs (1–5 scale)")
		fmt.Printf("mean score %.2f±%.2f over %d answers on %d REs; %d REs scored ≥3\n",
			res.Mean, res.Std, res.Answers, res.REs, res.ScoredAtLeast3)
		fmt.Println("paper: 2.65±0.71 over 86 answers on 35 REs; 11 REs scored ≥3")
	}

	table3 := func() {
		rows, merged := experiments.Table3With(lab, experiments.DefaultTable3Config())
		fmt.Println("Table 3 — entity summarization vs simulated 7-expert gold standard")
		fmt.Printf("%-10s %13s %13s %13s %13s\n", "method", "top5 PO", "top5 O", "top10 PO", "top10 O")
		for _, r := range rows {
			fmt.Printf("%-10s %7.2f±%.2f %7.2f±%.2f %7.2f±%.2f %7.2f±%.2f\n",
				r.Method, r.Top5PO, r.Top5POStd, r.Top5O, r.Top5OStd, r.Top10PO, r.Top10POStd, r.Top10O, r.Top10OStd)
		}
		fmt.Println("paper:  FACES    0.93±0.54 1.66±0.57 2.92±0.94 4.33±1.01")
		fmt.Println("        LinkSUM  1.20±0.60 1.89±0.55 3.20±0.87 4.82±1.06")
		fmt.Println("        REMI fr  0.68±0.18 1.31±0.27 2.26±0.34 3.70±0.46")
		fmt.Println("        REMI pr  0.73±0.13 1.21±0.29 2.24±0.46 3.75±0.23")
		fmt.Println("\nMerged top-10 gold precision (paper Ĉfr: P=0.53 O=0.62 PO=0.31; Ĉpr PO=0.38):")
		for _, m := range merged {
			fmt.Printf("  %s: P=%.2f O=%.2f PO=%.2f\n", m.Metric, m.P, m.O, m.PO)
		}
	}

	table4 := func() {
		cfg := experiments.DefaultTable4Config()
		if *sets > 0 {
			cfg.Sets = *sets
		}
		cfg.Timeout = *timeout
		cfg.Workers = *workers
		rows := experiments.Table4With(lab, cfg)
		fmt.Printf("Table 4 — runtimes over %d sets/KB, timeout %v (superscripts = timeouts)\n", cfg.Sets, cfg.Timeout)
		fmt.Printf("%-14s %-9s %5s %14s %14s %14s %22s %8s\n",
			"dataset", "language", "#sol", "amie+ (s)", "remi (s)", "p-remi (s)", "speedup amie/remi", "queue%")
		for _, r := range rows {
			fmt.Printf("%-14s %-9s %5d %11.2f^%-2d %11.3f^%-2d %11.3f^%-2d %9.0fx %7.2fx %7.1f%%\n",
				r.Dataset, r.Language, r.Solutions,
				r.AmieSec, r.AmieTimeouts, r.RemiSec, r.RemiTimeouts, r.PRemiSec, r.PRemiTimeouts,
				r.SpeedupVsAmie, r.SpeedupVsRemi, 100*r.QueueShare)
		}
		fmt.Println("paper (100 sets, 2h timeout, 48 cores):")
		fmt.Println("  DBpedia  standard #63: amie 97.4k^8  remi 10.3k^1  p-remi 576      (13.5kx, 2.44x)")
		fmt.Println("  DBpedia  remi     #65: amie 508.2k^68 remi 66.5k^8 p-remi 28.9k    (5218x, 21.4x)")
		fmt.Println("  Wikidata standard #44: amie 115.5k^15 remi 1.06k   p-remi 76.2     (142kx, 4.7x)")
		fmt.Println("  Wikidata remi     #44: amie 608.3k^60 remi 21.7k   p-remi 33.8k    (6476x, 7.1x)")
	}

	fit := func() {
		rows := experiments.Eq1Fits(lab, 20)
		fmt.Println("Eq. 1 — power-law fit of conditional rank vs frequency (per-predicate R²)")
		for _, r := range rows {
			fmt.Printf("  %-14s %-3s avg R² = %.2f over %d predicates\n", r.Dataset, r.Metric, r.AvgR2, r.Predicates)
		}
		fmt.Println("paper: DBpedia fr 0.85, Wikidata fr 0.88, DBpedia pr 0.91")
	}

	searchspace := func() {
		n := 20
		if *sets > 0 {
			n = *sets
		}
		rows := experiments.SearchSpaceCensus(lab, n, *seed+5)
		fmt.Println("§3.2 — language-bias census (subgraph expressions over sampled entities)")
		for _, r := range rows {
			growth := ""
			if r.GrowthPct != 0 {
				growth = fmt.Sprintf("  (+%.0f%%)", r.GrowthPct)
			}
			fmt.Printf("  %-24s %8d%s\n", r.Label, r.Subgraphs, growth)
		}
		fmt.Println("paper: 3rd atom → +40%; 2nd variable → +270%")
	}

	switch cmd {
	case "bench":
		if *compare != "" {
			if err := runCompare(*jsonOut, *compare); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		run("bench snapshot", func() {
			if err := runBench(*seed, *scale, *kbscale, 5*time.Second, *label, *jsonOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		})
	case "table2":
		run("Table 2", table2)
	case "map":
		run("§4.1.2 MAP", mapStudy)
	case "scores":
		run("§4.1.3 scores", scores)
	case "table3":
		run("Table 3", table3)
	case "table4":
		run("Table 4", table4)
	case "fit":
		run("Eq. 1 fits", fit)
	case "searchspace":
		run("§3.2 census", searchspace)
	case "all":
		run("Eq. 1 fits", fit)
		run("§3.2 census", searchspace)
		run("Table 2", table2)
		run("§4.1.2 MAP", mapStudy)
		run("§4.1.3 scores", scores)
		run("Table 3", table3)
		run("Table 4", table4)
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", cmd)
		os.Exit(2)
	}
}
