// Package prominence builds the concept-prominence rankings underlying
// REMI's complexity estimator Ĉ (Section 3.1 of the paper): a global
// predicate ranking, entity prominence by in-KB frequency (fr) or PageRank
// (pr), per-predicate conditional object rankings, join-aware predicate
// rankings, and the power-law rank compression of Section 3.5.3 (Eq. 1).
package prominence

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/stats"
)

// Metric selects the prominence signal for entities.
type Metric int

const (
	// Fr ranks entities by their number of occurrences in the KB.
	Fr Metric = iota
	// Pr ranks entities by PageRank over the KB's entity link graph (the
	// reproduction's stand-in for the Wikipedia page rank; fr is used as a
	// fallback wherever pr is undefined, e.g. for literals).
	Pr
	// Custom ranks entities by a caller-supplied score (the paper's §6
	// future work: prominence from search engines or external corpora).
	Custom
)

// String returns "fr", "pr" or "custom".
func (m Metric) String() string {
	switch m {
	case Pr:
		return "pr"
	case Custom:
		return "custom"
	default:
		return "fr"
	}
}

// JoinKind distinguishes the two predicate-join contexts Ĉ conditions on.
type JoinKind int

const (
	// JoinSO ranks p1 among predicates whose subjects join the objects of
	// p0 (first-to-second-argument joins, used by path shapes).
	JoinSO JoinKind = iota
	// JoinSS ranks p1 among predicates sharing subjects with p0 (used by
	// the closed shapes).
	JoinSS
)

// Store holds every ranking needed by the complexity estimator. Build one
// per (KB, Metric) pair; it is safe for concurrent use. Every ranking Ĉ
// reads is built eagerly into flat arrays and looked up by binary search.
type Store struct {
	K      *kb.KB
	Metric Metric

	predRank []int // predRank[p-1] = 1-based rank of predicate p by freq

	entScore []float64 // prominence score per entity (fr count or pagerank)

	// Conditional object rankings: row p-1 maps p's distinct objects to
	// their 1-based ranks.
	cond rows[kb.EntID, int32]

	// Power-law fits (Eq. 1) per predicate: log2(rank) ≈ Slope*log2(score)+Intercept.
	fits  []stats.Linear
	fitOK []bool

	// Join rankings per JoinKind: row p0-1 maps p0's join partners p1 to
	// their 1-based ranks.
	join [2]rows[kb.PredID, int32]

	globalOnce sync.Once
	globalRank []int

	custom func(kb.EntID) float64 // entity scores when Metric == Custom
}

// rows stores one row per predicate in flat arrays: row i is
// keys[off[i]:off[i+1]], ascending, with vals aligned to keys.
type rows[K ~uint32, V any] struct {
	off  []int
	keys []K
	vals []V
}

// size returns the number of keys in row i.
func (r *rows[K, V]) size(i int) int { return r.off[i+1] - r.off[i] }

// get returns key's value in row i.
func (r *rows[K, V]) get(i int, key K) (v V, ok bool) {
	lo := r.off[i]
	if j, ok := slices.BinarySearch(r.keys[lo:r.off[i+1]], key); ok {
		return r.vals[lo+j], true
	}
	return v, false
}

// rankRow sets ranks[i] to the 1-based rank of entry i when the entries are
// ordered by score descending, ties going to the lower index (rows are
// key-ascending, so to the lower key). It returns the entry indexes in rank
// order, reusing order's storage.
func rankRow[S cmp.Ordered](score []S, ranks, order []int32) []int32 {
	order = order[:0]
	for i := range score {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(score[b], score[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, i := range order {
		ranks[i] = int32(r + 1)
	}
	return order
}

// Build constructs the full ranking store for k under metric m.
func Build(k *kb.KB, m Metric) *Store {
	return build(k, m, nil)
}

// BuildWithScores constructs a store whose entity prominence comes from a
// caller-supplied source (scores need not be normalized; higher is more
// prominent). Entities scored <= 0 fall back to a frequency-derived
// pseudo-score below the smallest positive custom score, mirroring the
// paper's "we use fr whenever pr is undefined" rule.
func BuildWithScores(k *kb.KB, score func(kb.EntID) float64) *Store {
	return build(k, Custom, score)
}

func build(k *kb.KB, m Metric, score func(kb.EntID) float64) *Store {
	s := &Store{K: k, Metric: m, custom: score}
	s.buildPredicateRanking()
	s.buildEntityScores()
	s.buildConditionalRankings()
	s.buildJoinRankings()
	return s
}

func (s *Store) buildPredicateRanking() {
	n := s.K.NumPredicates()
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = float64(s.K.PredFreq(kb.PredID(i + 1)))
	}
	s.predRank = stats.RankDescending(weights)
}

func (s *Store) buildEntityScores() {
	s.entScore = make([]float64, s.K.NumEntities())
	freq := func(i int) float64 { return float64(s.K.EntityFreq(kb.EntID(i + 1))) }
	switch s.Metric {
	case Pr:
		copy(s.entScore, PageRank(s.K, 0.85, 30, 1e-9))
	case Custom:
		for i := range s.entScore {
			if v := s.custom(kb.EntID(i + 1)); v > 0 {
				s.entScore[i] = v
			}
		}
	default:
		for i := range s.entScore {
			s.entScore[i] = freq(i)
		}
		return
	}
	// fr fallback where the score is undefined (literals never receive
	// PageRank mass): a frequency-derived pseudo-score scaled below the
	// smallest defined score, so those entities rank after all others.
	minPos := math.Inf(1)
	for _, v := range s.entScore {
		if v > 0 {
			minPos = min(minPos, v)
		}
	}
	if math.IsInf(minPos, 1) {
		minPos = 1
	}
	for i, v := range s.entScore {
		if v == 0 {
			s.entScore[i] = minPos * freq(i) / (1e6 + freq(i))
		}
	}
}

// EntityScore returns the prominence score of e under the store's metric.
func (s *Store) EntityScore(e kb.EntID) float64 { return s.entScore[e-1] }

// PredicateRank returns the 1-based global rank of p.
func (s *Store) PredicateRank(p kb.PredID) int { return s.predRank[p-1] }

// buildConditionalRankings ranks, for every predicate p, the objects of p by
// prominence (conditional frequency under fr; entity score under pr and
// custom), and fits the Eq. 1 power law on (log2 score, log2 rank). Objects
// are counted in a dense per-entity counter reset through the list of
// objects it touched.
func (s *Store) buildConditionalRankings() {
	nP := s.K.NumPredicates()
	s.cond.off = make([]int, 1, nP+1)
	s.fits = make([]stats.Linear, nP)
	s.fitOK = make([]bool, nP)

	count := make([]uint32, s.K.NumEntities()+1)
	var objs []kb.EntID
	var score, xs, ys []float64
	var order []int32
	for pi := 0; pi < nP; pi++ {
		objs = objs[:0]
		for _, pr := range s.K.Facts(kb.PredID(pi + 1)) {
			if count[pr.O] == 0 {
				objs = append(objs, pr.O)
			}
			count[pr.O]++
		}
		slices.Sort(objs)
		score = score[:0]
		for _, o := range objs {
			if s.Metric == Fr {
				score = append(score, float64(count[o]))
			} else {
				score = append(score, s.entScore[o-1])
			}
			count[o] = 0
		}
		lo := len(s.cond.keys)
		s.cond.keys = append(s.cond.keys, objs...)
		s.cond.vals = slices.Grow(s.cond.vals, len(objs))[:len(s.cond.keys)]
		s.cond.off = append(s.cond.off, len(s.cond.keys))
		order = rankRow(score, s.cond.vals[lo:], order)

		// Eq. 1 fit: log2(rank) against log2(conditional frequency); for pr
		// the score replaces frequency, as the paper notes the power law
		// extrapolates to the page rank.
		xs, ys = xs[:0], ys[:0]
		for r, i := range order {
			if score[i] <= 0 {
				continue
			}
			xs = append(xs, math.Log2(score[i]))
			ys = append(ys, math.Log2(float64(r+1)))
		}
		if fit, err := stats.FitLinear(xs, ys); err == nil {
			s.fits[pi] = fit
			s.fitOK[pi] = true
		}
	}
}

// CondRank returns the exact 1-based rank of object o among the objects of
// predicate p; ok is false when o never appears as object of p.
func (s *Store) CondRank(p kb.PredID, o kb.EntID) (int, bool) {
	r, ok := s.cond.get(int(p-1), o)
	return int(r), ok
}

// CondDomainSize returns the number of distinct objects of p.
func (s *Store) CondDomainSize(p kb.PredID) int { return s.cond.size(int(p - 1)) }

// Fit returns the Eq. 1 coefficients for predicate p; ok is false when the
// predicate had too few distinct object frequencies to fit.
func (s *Store) Fit(p kb.PredID) (stats.Linear, bool) {
	return s.fits[p-1], s.fitOK[p-1]
}

// EstimatedLogRank estimates log2 k(o|p) via the Eq. 1 compression; it falls
// back to the exact rank when no fit is available.
func (s *Store) EstimatedLogRank(p kb.PredID, o kb.EntID) float64 {
	var sc float64
	if s.Metric != Fr {
		sc = s.entScore[o-1]
	} else {
		sc = float64(s.K.ObjFreq(p, o))
	}
	if s.fitOK[p-1] && sc > 0 {
		est := s.fits[p-1].Eval(math.Log2(sc))
		if est < 0 {
			est = 0
		}
		return est
	}
	if r, ok := s.CondRank(p, o); ok {
		return math.Log2(float64(r))
	}
	// Unknown object: price it beyond the known domain.
	return math.Log2(float64(s.CondDomainSize(p) + 1))
}

// AverageFitR2 returns the mean R² of the Eq. 1 fits across predicates with
// at least minPoints distinct ranked objects (the paper reports 0.85 for
// DBpedia-fr, 0.88 for Wikidata-fr, 0.91 for DBpedia-pr).
func (s *Store) AverageFitR2(minPoints int) (avg float64, fitted int) {
	var sum float64
	for pi := range s.fits {
		if s.fitOK[pi] && s.fits[pi].N >= minPoints {
			sum += s.fits[pi].R2
			fitted++
		}
	}
	if fitted == 0 {
		return 0, 0
	}
	return sum / float64(fitted), fitted
}

// buildJoinCounts computes, for every ordered predicate pair (p0, p1), the
// join strength Ĉ ranks p1 by among the partners of p0; row p0-1 of the
// result for each JoinKind lists the p1 with a nonzero count.
//
//   - JoinSO(p0, p1) = Σ over o of w(o, p0) · |{p1(o, ·)}|. Here w(o, p0) is
//     the number of runs of o in the object column of Facts(p0): maximal
//     blocks of consecutive facts sharing the object. Facts(p0) is sorted
//     by (subject id, object id), so a run continues across a subject
//     boundary only when o closes one subject's objects and opens the
//     next's. w therefore lies between 1 and o's number of p0-subjects and
//     depends on entity-id order; it is not the paper's once per distinct
//     (o, p0).
//   - JoinSS(p0, p1) = |{p1(s, ·) : p1 ≠ p0, s a subject of p0}|, each s
//     counted once per p0.
//
// One flat per-entity list of (p1, facts of p1 with that subject) serves
// both kinds: each Facts(p0) is walked once, adding the list of every run
// start into a dense per-predicate counter.
func buildJoinCounts(k *kb.KB) [2]rows[kb.PredID, int64] {
	nEnt, nP := k.NumEntities(), k.NumPredicates()
	type predRun struct {
		p kb.PredID
		n int64
	}
	// out[off[e]:off[e+1]]: e's subject runs, ascending by predicate.
	off := make([]int, nEnt+2)
	for _, p := range k.Predicates() {
		facts := k.Facts(p)
		for i, pr := range facts {
			if i == 0 || pr.S != facts[i-1].S {
				off[pr.S+1]++
			}
		}
	}
	for e := 1; e <= nEnt+1; e++ {
		off[e] += off[e-1]
	}
	out := make([]predRun, off[nEnt+1])
	end := slices.Clone(off)
	for _, p := range k.Predicates() {
		facts := k.Facts(p)
		for i, pr := range facts {
			if i == 0 || pr.S != facts[i-1].S {
				out[end[pr.S]] = predRun{p, 0}
				end[pr.S]++
			}
			out[end[pr.S]-1].n++
		}
	}

	var res [2]rows[kb.PredID, int64]
	var cnt [2][]int64
	var touched [2][]kb.PredID
	for kind := range res {
		res[kind].off = make([]int, 1, nP+1)
		cnt[kind] = make([]int64, nP+1)
	}
	add := func(kind JoinKind, p0 kb.PredID, e kb.EntID) {
		for _, r := range out[off[e]:off[e+1]] {
			if kind == JoinSS && r.p == p0 {
				continue
			}
			if cnt[kind][r.p] == 0 {
				touched[kind] = append(touched[kind], r.p)
			}
			cnt[kind][r.p] += r.n
		}
	}
	for _, p0 := range k.Predicates() {
		facts := k.Facts(p0)
		for i, pr := range facts {
			if i == 0 || pr.S != facts[i-1].S {
				add(JoinSS, p0, pr.S)
			}
			if i == 0 || pr.O != facts[i-1].O {
				add(JoinSO, p0, pr.O)
			}
		}
		for kind := range res {
			r := &res[kind]
			slices.Sort(touched[kind])
			for _, p1 := range touched[kind] {
				r.keys = append(r.keys, p1)
				r.vals = append(r.vals, cnt[kind][p1])
				cnt[kind][p1] = 0
			}
			touched[kind] = touched[kind][:0]
			r.off = append(r.off, len(r.keys))
		}
	}
	return res
}

// buildJoinRankings ranks every p0's join partners by count, descending.
func (s *Store) buildJoinRankings() {
	var order []int32
	for kind, c := range buildJoinCounts(s.K) {
		ranks := make([]int32, len(c.keys))
		for i := 0; i+1 < len(c.off); i++ {
			lo, hi := c.off[i], c.off[i+1]
			order = rankRow(c.vals[lo:hi], ranks[lo:hi], order)
		}
		s.join[kind] = rows[kb.PredID, int32]{c.off, c.keys, ranks}
	}
}

// JoinRank returns the 1-based rank of p1 among the predicates that join
// with p0 under kind, plus the number of such join partners.
func (s *Store) JoinRank(kind JoinKind, p0, p1 kb.PredID) (rank, domain int, ok bool) {
	row := &s.join[kind]
	r, ok := row.get(int(p0-1), p1)
	return int(r), row.size(int(p0 - 1)), ok
}

// GlobalEntityRank returns the 1-based rank of e in the global prominence
// ranking, which is computed on first use.
func (s *Store) GlobalEntityRank(e kb.EntID) int {
	s.globalOnce.Do(func() { s.globalRank = stats.RankDescending(s.entScore) })
	return s.globalRank[e-1]
}
