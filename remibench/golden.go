package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	remi "github.com/remi-kb/remi"
)

// goldens maps every requested (metric, top_k, set) to the answer the
// facade mines in process on the same snapshot.
type goldens map[goldenKey]string

// mineGoldens mines every key on sys, grouped into one facade batch per
// (metric, top_k); batch results are byte-identical to single mines.
func mineGoldens(sys *remi.System, keys map[goldenKey]bool) (goldens, error) {
	type group struct {
		metric string
		topK   int
	}
	byGroup := map[group][]goldenKey{}
	for k := range keys {
		g := group{k.metric, k.topK}
		byGroup[g] = append(byGroup[g], k)
	}
	out := make(goldens, len(keys))
	for g, ks := range byGroup {
		sort.Slice(ks, func(i, j int) bool { return ks[i].set < ks[j].set })
		sets := make([][]string, len(ks))
		for i, k := range ks {
			sets[i] = strings.Split(k.set, "\x00")
		}
		opts := []remi.MineOption{remi.WithTopK(g.topK), remi.WithBatchConcurrency(runtime.NumCPU())}
		if g.metric == "pr" {
			opts = append(opts, remi.WithMetric(remi.MetricPr))
		}
		br, err := sys.MineBatch(context.Background(), sets, opts...)
		if err != nil {
			return nil, err
		}
		for i, e := range br.Entries {
			if e.Err != nil {
				return nil, fmt.Errorf("golden for %q: %w", ks[i].set, e.Err)
			}
			out[ks[i]] = facadeAnswer(e.Result)
		}
	}
	return out, nil
}

// check marks every mining result whose answers do not match their goldens
// as failed, and returns the number of mismatched answers.
func check(results []result, g goldens) int {
	mismatches := 0
	for i := range results {
		r := &results[i]
		if r.err != nil {
			continue
		}
		for j, k := range r.op.keys {
			if want, found := g[k]; !found || want != r.answers[j] {
				mismatches++
				if r.err == nil {
					r.err = fmt.Errorf("golden mismatch for %q (%s): got %q", k.set, k.metric, r.answers[j])
				}
			}
		}
	}
	return mismatches
}
