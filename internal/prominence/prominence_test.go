package prominence

import (
	"maps"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/stats"
)

func buildKB(t testing.TB, triples [][3]string) *kb.KB {
	t.Helper()
	b := kb.NewBuilder()
	for _, tr := range triples {
		err := b.Add(rdf.Triple{
			S: rdf.NewIRI("http://e/" + tr[0]),
			P: rdf.NewIRI("http://e/" + tr[1]),
			O: rdf.NewIRI("http://e/" + tr[2]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(kb.Options{})
}

func TestPredicateRanking(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"b", "p", "x"}, {"c", "p", "y"},
		{"a", "q", "x"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	if s.PredicateRank(p) != 1 || s.PredicateRank(q) != 2 {
		t.Fatalf("ranks: p=%d q=%d", s.PredicateRank(p), s.PredicateRank(q))
	}
}

func TestConditionalRanking(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"b", "p", "x"}, {"c", "p", "x"},
		{"d", "p", "y"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	x := k.MustEntityID("http://e/x")
	y := k.MustEntityID("http://e/y")
	rx, ok := s.CondRank(p, x)
	if !ok || rx != 1 {
		t.Fatalf("rank(x|p) = %d ok=%v", rx, ok)
	}
	ry, _ := s.CondRank(p, y)
	if ry != 2 {
		t.Fatalf("rank(y|p) = %d", ry)
	}
	if s.CondDomainSize(p) != 2 {
		t.Fatalf("domain = %d", s.CondDomainSize(p))
	}
	if _, ok := s.CondRank(p, k.MustEntityID("http://e/a")); ok {
		t.Fatal("subject ranked as object")
	}
}

func TestJoinRankSO(t *testing.T) {
	// p's objects {x} feed q (x is q's subject twice) and r (once):
	// q ranks above r among p's SO-join partners.
	k := buildKB(t, [][3]string{
		{"a", "p", "x"},
		{"x", "q", "m"}, {"x", "q", "n"},
		{"x", "r", "m"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	r := k.MustPredicateID("http://e/r")
	rq, dom, ok := s.JoinRank(JoinSO, p, q)
	if !ok || rq != 1 || dom != 2 {
		t.Fatalf("JoinRank(p,q) = %d dom=%d ok=%v", rq, dom, ok)
	}
	rr, _, _ := s.JoinRank(JoinSO, p, r)
	if rr != 2 {
		t.Fatalf("JoinRank(p,r) = %d", rr)
	}
	if _, _, ok := s.JoinRank(JoinSO, q, p); ok {
		t.Fatal("no join between q's objects and p's subjects expected")
	}
}

func TestJoinRankSS(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"a", "q", "y"}, {"a", "q", "z"},
		{"b", "p", "x"}, {"b", "r", "y"},
	})
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	rq, _, ok := s.JoinRank(JoinSS, p, q)
	if !ok || rq < 1 {
		t.Fatalf("JoinRank SS = %d ok=%v", rq, ok)
	}
}

func TestEstimatedLogRankMonotone(t *testing.T) {
	// More frequent objects should get lower estimated log-ranks.
	var triples [][3]string
	for i := 0; i < 30; i++ {
		triples = append(triples, [3]string{sname(i), "p", "top"})
	}
	for i := 0; i < 10; i++ {
		triples = append(triples, [3]string{sname(i), "p", "mid"})
	}
	triples = append(triples, [3]string{"z", "p", "tail"})
	k := buildKB(t, triples)
	s := Build(k, Fr)
	p := k.MustPredicateID("http://e/p")
	top := k.MustEntityID("http://e/top")
	mid := k.MustEntityID("http://e/mid")
	tail := k.MustEntityID("http://e/tail")
	lt, lm, ll := s.EstimatedLogRank(p, top), s.EstimatedLogRank(p, mid), s.EstimatedLogRank(p, tail)
	if !(lt <= lm && lm <= ll) {
		t.Fatalf("estimated log ranks not monotone: %f %f %f", lt, lm, ll)
	}
}

func sname(i int) string { return "s" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func TestPageRankBasics(t *testing.T) {
	// star: many pages link to hub → hub has the top PageRank.
	k := buildKB(t, [][3]string{
		{"a", "l", "hub"}, {"b", "l", "hub"}, {"c", "l", "hub"}, {"hub", "l", "a"},
	})
	pr := PageRank(k, 0.85, 50, 1e-12)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1.0) > 1e-6 {
		t.Fatalf("PageRank mass = %f, want 1", sum)
	}
	hub := k.MustEntityID("http://e/hub")
	for e := 1; e <= k.NumEntities(); e++ {
		if kb.EntID(e) != hub && pr[e-1] >= pr[hub-1] {
			t.Fatalf("hub should dominate: pr[%d]=%f >= pr[hub]=%f", e, pr[e-1], pr[hub-1])
		}
	}
}

func TestPageRankSkipsLiterals(t *testing.T) {
	b := kb.NewBuilder()
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewLiteral("lit")})
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/b")})
	k := b.Build(kb.Options{})
	pr := PageRank(k, 0.85, 30, 1e-9)
	lit, _ := k.EntityID(rdf.NewLiteral("lit"))
	if pr[lit-1] != 0 {
		t.Fatal("literal received PageRank mass")
	}
}

func TestAverageFitR2OnZipfianData(t *testing.T) {
	d := datagen.DBpediaLike(datagen.Config{Seed: 9, Scale: 0.05})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := Build(k, Fr)
	avg, n := s.AverageFitR2(15)
	if n == 0 {
		t.Fatal("no predicates fitted")
	}
	if avg < 0.6 || avg > 1 {
		t.Fatalf("avg R² = %f outside the expected power-law regime", avg)
	}
}

func TestGlobalEntityRank(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "hub"}, {"b", "p", "hub"}, {"c", "p", "hub"}, {"a", "p", "x"},
	})
	s := Build(k, Fr)
	hub := k.MustEntityID("http://e/hub")
	if s.GlobalEntityRank(hub) != 1 {
		t.Fatalf("hub rank = %d", s.GlobalEntityRank(hub))
	}
}

func TestPrMetricFallsBackForLiterals(t *testing.T) {
	b := kb.NewBuilder()
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewLiteral("x")})
	b.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/q"), O: rdf.NewIRI("http://e/b")})
	k := b.Build(kb.Options{})
	s := Build(k, Pr)
	lit, _ := k.EntityID(rdf.NewLiteral("x"))
	bEnt := k.MustEntityID("http://e/b")
	if s.EntityScore(lit) <= 0 {
		t.Fatal("literal got no fallback score")
	}
	if s.EntityScore(lit) >= s.EntityScore(bEnt) {
		t.Fatal("literal fallback should rank below entities with PageRank")
	}
}

// TestJoinCountWeightsObjectRuns pins the object-side join weight by hand.
// Facts(p) in (subject, object) id order is (a,x) (a,y) (b,x), so x forms
// two runs of p's object column: w(x, p) = 2, w(y, p) = 1. Hence
// JoinSO(p, q) = 2 (x is q's subject once) and JoinSO(p, r) = 1. Counting
// each distinct (o, p) once, as the paper defines it, would tie q and r
// and rank r (the lower id) first. No subject has two predicates, so every
// JoinSS row is empty.
func TestJoinCountWeightsObjectRuns(t *testing.T) {
	k := buildKB(t, [][3]string{
		{"a", "p", "x"}, {"a", "p", "y"}, {"b", "p", "x"},
		{"y", "r", "m"}, {"x", "q", "m"},
	})
	p := k.MustPredicateID("http://e/p")
	q := k.MustPredicateID("http://e/q")
	r := k.MustPredicateID("http://e/r")
	a, b := k.MustEntityID("http://e/a"), k.MustEntityID("http://e/b")
	x, y := k.MustEntityID("http://e/x"), k.MustEntityID("http://e/y")
	if !(a < b && x < y && r < q) {
		t.Fatalf("id order premise broken: a=%d b=%d x=%d y=%d r=%d q=%d", a, b, x, y, r, q)
	}
	counts := buildJoinCounts(k)
	for kind, c := range counts {
		for _, p0 := range k.Predicates() {
			keys := c.keys[c.off[p0-1]:c.off[p0]]
			vals := c.vals[c.off[p0-1]:c.off[p0]]
			if JoinKind(kind) == JoinSO && p0 == p {
				if !slices.Equal(keys, []kb.PredID{r, q}) || !slices.Equal(vals, []int64{1, 2}) {
					t.Fatalf("JoinSO row of p = %v %v, want [r q] [1 2]", keys, vals)
				}
			} else if len(keys) != 0 {
				t.Fatalf("kind %d row of %d = %v %v, want empty", kind, p0, keys, vals)
			}
		}
	}
	s := Build(k, Fr)
	if rk, dom, ok := s.JoinRank(JoinSO, p, q); rk != 1 || dom != 2 || !ok {
		t.Fatalf("JoinRank(SO, p, q) = %d %d %v, want 1 2 true", rk, dom, ok)
	}
	if rk, dom, ok := s.JoinRank(JoinSO, p, r); rk != 2 || dom != 2 || !ok {
		t.Fatalf("JoinRank(SO, p, r) = %d %d %v, want 2 2 true", rk, dom, ok)
	}
	if _, dom, ok := s.JoinRank(JoinSS, p, q); dom != 0 || ok {
		t.Fatalf("JoinRank(SS, p, q) domain = %d ok=%v, want 0 false", dom, ok)
	}
}

// refStore is the map-based construction the flat-array Store replaced,
// kept verbatim as a test-only reference: per-predicate object maps for
// the conditional rankings, and join counts keyed by (p0<<32 | p1) ranked
// per p0 on demand.
type refStore struct {
	k        *kb.KB
	metric   Metric
	entScore []float64
	condRank []map[kb.EntID]int
	fits     []stats.Linear
	fitOK    []bool
	joinSO   map[uint64]int
	joinSS   map[uint64]int
}

func newRefStore(k *kb.KB, m Metric, score func(kb.EntID) float64) *refStore {
	s := &refStore{k: k, metric: m}
	s.buildEntityScores(score)
	s.buildConditionalRankings()
	s.buildJoinCounts()
	return s
}

func (s *refStore) buildEntityScores(custom func(kb.EntID) float64) {
	n := s.k.NumEntities()
	s.entScore = make([]float64, n)
	if s.metric == Custom {
		minPos := math.Inf(1)
		for i := 0; i < n; i++ {
			if v := custom(kb.EntID(i + 1)); v > 0 {
				s.entScore[i] = v
				if v < minPos {
					minPos = v
				}
			}
		}
		if math.IsInf(minPos, 1) {
			minPos = 1
		}
		for i := 0; i < n; i++ {
			if s.entScore[i] == 0 {
				f := float64(s.k.EntityFreq(kb.EntID(i + 1)))
				s.entScore[i] = minPos * f / (1e6 + f)
			}
		}
		return
	}
	if s.metric == Pr {
		pr := PageRank(s.k, 0.85, 30, 1e-9)
		copy(s.entScore, pr)
		minPR := math.Inf(1)
		for _, v := range pr {
			if v > 0 && v < minPR {
				minPR = v
			}
		}
		if math.IsInf(minPR, 1) {
			minPR = 1
		}
		for i := 0; i < n; i++ {
			if s.entScore[i] == 0 {
				f := float64(s.k.EntityFreq(kb.EntID(i + 1)))
				s.entScore[i] = minPR * f / (1e6 + f)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			s.entScore[i] = float64(s.k.EntityFreq(kb.EntID(i + 1)))
		}
	}
}

func (s *refStore) buildConditionalRankings() {
	nP := s.k.NumPredicates()
	s.condRank = make([]map[kb.EntID]int, nP)
	s.fits = make([]stats.Linear, nP)
	s.fitOK = make([]bool, nP)
	for pi := 0; pi < nP; pi++ {
		freq := make(map[kb.EntID]int)
		for _, pr := range s.k.Facts(kb.PredID(pi + 1)) {
			freq[pr.O]++
		}
		objs := make([]kb.EntID, 0, len(freq))
		for o := range freq {
			objs = append(objs, o)
		}
		score := func(o kb.EntID) float64 {
			if s.metric != Fr {
				return s.entScore[o-1]
			}
			return float64(freq[o])
		}
		sort.Slice(objs, func(i, j int) bool {
			si, sj := score(objs[i]), score(objs[j])
			if si != sj {
				return si > sj
			}
			return objs[i] < objs[j]
		})
		rank := make(map[kb.EntID]int, len(objs))
		for i, o := range objs {
			rank[o] = i + 1
		}
		s.condRank[pi] = rank
		var xs, ys []float64
		for i, o := range objs {
			sc := score(o)
			if sc <= 0 {
				continue
			}
			xs = append(xs, math.Log2(sc))
			ys = append(ys, math.Log2(float64(i+1)))
		}
		if fit, err := stats.FitLinear(xs, ys); err == nil {
			s.fits[pi] = fit
			s.fitOK[pi] = true
		}
	}
}

func (s *refStore) estimatedLogRank(p kb.PredID, o kb.EntID) float64 {
	var sc float64
	if s.metric != Fr {
		sc = s.entScore[o-1]
	} else {
		sc = float64(s.k.ObjFreq(p, o))
	}
	if s.fitOK[p-1] && sc > 0 {
		return max(s.fits[p-1].Eval(math.Log2(sc)), 0)
	}
	if r, ok := s.condRank[p-1][o]; ok {
		return math.Log2(float64(r))
	}
	return math.Log2(float64(len(s.condRank[p-1]) + 1))
}

func (s *refStore) buildJoinCounts() {
	k := s.k
	nEnt := k.NumEntities()
	objPreds := make([][]kb.PredID, nEnt+1)
	subjPreds := make([][]kb.PredID, nEnt+1)
	for _, p := range k.Predicates() {
		var lastS, lastO kb.EntID
		for _, pr := range k.Facts(p) {
			if pr.S != lastS || len(subjPreds[pr.S]) == 0 || subjPreds[pr.S][len(subjPreds[pr.S])-1] != p {
				subjPreds[pr.S] = append(subjPreds[pr.S], p)
				lastS = pr.S
			}
			if pr.O != lastO || len(objPreds[pr.O]) == 0 || objPreds[pr.O][len(objPreds[pr.O])-1] != p {
				objPreds[pr.O] = append(objPreds[pr.O], p)
				lastO = pr.O
			}
		}
	}
	s.joinSO = make(map[uint64]int)
	s.joinSS = make(map[uint64]int)
	for _, p1 := range k.Predicates() {
		for _, pr := range k.Facts(p1) {
			for _, p0 := range objPreds[pr.S] {
				s.joinSO[refJoinKey(p0, p1)]++
			}
			for _, p0 := range subjPreds[pr.S] {
				if p0 != p1 {
					s.joinSS[refJoinKey(p0, p1)]++
				}
			}
		}
	}
}

func refJoinKey(p0, p1 kb.PredID) uint64 { return uint64(p0)<<32 | uint64(p1) }

// joinRanks ranks p0's partners under kind: p1 -> 1-based rank.
func (s *refStore) joinRanks(kind JoinKind, p0 kb.PredID) map[kb.PredID]int {
	counts := s.joinSO
	if kind == JoinSS {
		counts = s.joinSS
	}
	type pc struct {
		p kb.PredID
		c int
	}
	var partners []pc
	for _, p := range s.k.Predicates() {
		if c := counts[refJoinKey(p0, p)]; c > 0 {
			partners = append(partners, pc{p, c})
		}
	}
	sort.Slice(partners, func(i, j int) bool {
		if partners[i].c != partners[j].c {
			return partners[i].c > partners[j].c
		}
		return partners[i].p < partners[j].p
	})
	rm := make(map[kb.PredID]int, len(partners))
	for i, x := range partners {
		rm[x.p] = i + 1
	}
	return rm
}

// sameFloat compares bit patterns, so a NaN R² still matches itself.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFit(a, b stats.Linear) bool {
	return a.N == b.N && sameFloat(a.Slope, b.Slope) && sameFloat(a.Intercept, b.Intercept) && sameFloat(a.R2, b.R2)
}

// checkAgainstReference asserts that s answers every query exactly as the
// map-based reference built on the same KB.
func checkAgainstReference(t *testing.T, s *Store, ref *refStore) {
	t.Helper()
	k := s.K
	for i := range ref.entScore {
		if !sameFloat(s.entScore[i], ref.entScore[i]) {
			t.Fatalf("EntityScore(%d) = %v, reference %v", i+1, s.entScore[i], ref.entScore[i])
		}
	}
	for _, p := range k.Predicates() {
		if got, want := s.CondDomainSize(p), len(ref.condRank[p-1]); got != want {
			t.Fatalf("CondDomainSize(%d) = %d, reference %d", p, got, want)
		}
		fit, ok := s.Fit(p)
		if ok != ref.fitOK[p-1] || !sameFit(fit, ref.fits[p-1]) {
			t.Fatalf("Fit(%d) = %+v %v, reference %+v %v", p, fit, ok, ref.fits[p-1], ref.fitOK[p-1])
		}
		for e := kb.EntID(1); int(e) <= k.NumEntities(); e++ {
			r, ok := s.CondRank(p, e)
			wr, wok := ref.condRank[p-1][e]
			if r != wr || ok != wok {
				t.Fatalf("CondRank(%d, %d) = %d %v, reference %d %v", p, e, r, ok, wr, wok)
			}
			if got, want := s.EstimatedLogRank(p, e), ref.estimatedLogRank(p, e); !sameFloat(got, want) {
				t.Fatalf("EstimatedLogRank(%d, %d) = %v, reference %v", p, e, got, want)
			}
		}
	}
	for _, kind := range []JoinKind{JoinSO, JoinSS} {
		for _, p0 := range k.Predicates() {
			want := ref.joinRanks(kind, p0)
			for _, p1 := range k.Predicates() {
				r, dom, ok := s.JoinRank(kind, p0, p1)
				wr, wok := want[p1]
				if r != wr || dom != len(want) || ok != wok {
					t.Fatalf("JoinRank(%d, %d, %d) = %d %d %v, reference %d %d %v",
						kind, p0, p1, r, dom, ok, wr, len(want), wok)
				}
			}
		}
	}
}

// customScore is a deterministic caller-supplied prominence with gaps
// (every seventh entity unscored) to exercise the fr fallback.
func customScore(e kb.EntID) float64 {
	if e%7 == 0 {
		return 0
	}
	return float64(uint32(e)*2654435761%1000 + 1)
}

// referenceKBs returns the KBs the reference-equivalence test covers: the
// tiny running example, DBpedia-like and Wikidata-like KBs in memory and
// reopened from a snapshot, and a KB produced by kb.ApplyPatch.
func referenceKBs(t *testing.T) map[string]*kb.KB {
	t.Helper()
	out := make(map[string]*kb.KB)
	tinyOpts := kb.DefaultOptions()
	tinyOpts.InverseTopFraction = 0.10
	tiny, err := datagen.TinyGeo().BuildKB(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	out["tiny"] = tiny
	for name, d := range map[string]*datagen.Dataset{
		"dbpedia":  datagen.DBpediaLike(datagen.Config{Seed: 5, Scale: 0.05}),
		"wikidata": datagen.WikidataLike(datagen.Config{Seed: 5, Scale: 0.05}),
	} {
		k, err := d.BuildKB(kb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = k
		path := filepath.Join(t.TempDir(), name+".snap")
		if err := k.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		snap, err := kb.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() })
		out[name+"-snapshot"] = snap
	}
	out["dbpedia-patched"] = patchedKB(t, out["dbpedia"])
	return out
}

// patchedKB deletes every third fact of k's largest base predicate, adds a
// new entity as a subject of it, and links a few of its subjects to that
// entity through a new predicate.
func patchedKB(t *testing.T, k *kb.KB) *kb.KB {
	t.Helper()
	var p kb.PredID
	for _, q := range k.Predicates() {
		if !k.IsInverse(q) && (p == 0 || k.PredFreq(q) > k.PredFreq(p)) {
			p = q
		}
	}
	facts := k.Facts(p)
	var dels, links []kb.Pair
	newEnt := kb.EntID(k.NumEntities() + 1)
	for i, pr := range facts {
		if i%3 == 0 {
			dels = append(dels, pr)
		}
		if i%50 == 0 && (len(links) == 0 || links[len(links)-1].S != pr.S) {
			links = append(links, kb.Pair{S: pr.S, O: newEnt})
		}
	}
	newPred := kb.PredID(k.NumPredicates() + 1)
	k2, err := k.ApplyPatch(kb.Patch{
		ExtraTerms: []rdf.Term{rdf.NewIRI("http://e/patched")},
		ExtraPreds: []string{"http://e/patchedLink"},
		Adds: map[kb.PredID][]kb.Pair{
			p:       {{S: newEnt, O: facts[0].O}},
			newPred: links,
		},
		Dels: map[kb.PredID][]kb.Pair{p: dels},
	})
	if err != nil {
		t.Fatal(err)
	}
	return k2
}

func TestStoreMatchesMapReference(t *testing.T) {
	kbs := referenceKBs(t)
	for _, name := range slices.Sorted(maps.Keys(kbs)) {
		k := kbs[name]
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, Build(k, Fr), newRefStore(k, Fr, nil))
			checkAgainstReference(t, Build(k, Pr), newRefStore(k, Pr, nil))
			checkAgainstReference(t, BuildWithScores(k, customScore), newRefStore(k, Custom, customScore))
		})
	}
}

func benchmarkBuild(b *testing.B, m Metric) {
	k, err := datagen.DBpediaLike(datagen.Config{Seed: 42, Scale: 1}).BuildKB(kb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		Build(k, m)
	}
}

func BenchmarkBuildFr(b *testing.B) { benchmarkBuild(b, Fr) }
func BenchmarkBuildPr(b *testing.B) { benchmarkBuild(b, Pr) }
