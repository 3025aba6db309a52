package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/experiments"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/kb/delta"
	"github.com/remi-kb/remi/internal/rdf"
	"github.com/remi-kb/remi/internal/server"
	"github.com/remi-kb/remi/internal/zipf"
)

// factPredicate carries the write set F: spouse links between existing
// persons, so F touches entities the read sets sample.
const factPredicate = "http://dbpedia.demo/ontology/spouse"

// fixture is the KB every workload of one seed shares: the generated
// dataset, its compiled snapshot (the only input remi-serve receives) and
// the write set F.
type fixture struct {
	data      *datagen.Dataset
	env       *experiments.Env // sampling view: data plus its in-memory KB
	snap      string
	snapBytes int64
	facts     []delta.Op // F as upserts
}

func newFixture(dir string, seed int64, scale float64) (*fixture, error) {
	d := datagen.DBpediaLike(datagen.Config{Seed: seed, Scale: scale})
	k, err := d.BuildKB(kb.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("building KB: %w", err)
	}
	snap := filepath.Join(dir, "kb.snap")
	if err := k.WriteSnapshotFile(snap); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	st, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	fx := &fixture{data: d, env: &experiments.Env{Data: d, KB: k}, snap: snap, snapBytes: st.Size()}
	fx.facts, err = factSet(k, d, seed)
	return fx, err
}

// factSet draws F: factCount distinct spouse links between existing persons
// that the base KB does not hold.
func factSet(k *kb.KB, d *datagen.Dataset, seed int64) ([]delta.Op, error) {
	p := rdf.NewIRI(factPredicate)
	pid, ok := k.PredicateID(factPredicate)
	if !ok {
		return nil, fmt.Errorf("KB has no predicate %s", factPredicate)
	}
	persons := d.Members["Person"]
	rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
	seen := map[[2]int]bool{}
	var ops []delta.Op
	for tries := 0; len(ops) < factCount; tries++ {
		if tries > 1000*factCount {
			return nil, fmt.Errorf("cannot draw %d new %s facts", factCount, factPredicate)
		}
		i, j := rng.Intn(len(persons)), rng.Intn(len(persons))
		if i == j || seen[[2]int{i, j}] {
			continue
		}
		s, o := rdf.NewIRI(persons[i]), rdf.NewIRI(persons[j])
		sid, ok1 := k.EntityID(s)
		oid, ok2 := k.EntityID(o)
		if !ok1 || !ok2 || k.HasFact(pid, sid, oid) {
			continue
		}
		seen[[2]int{i, j}] = true
		ops = append(ops, delta.Op{S: s, P: p, O: o})
	}
	return ops, nil
}

// factsBody is the wire form of F as one facts batch; retract selects the
// op of the whole batch.
func (fx *fixture) factsBody(retract bool) server.FactsRequest {
	verb := "upsert"
	if retract {
		verb = "retract"
	}
	req := server.FactsRequest{Ops: make([]server.FactOp, len(fx.facts))}
	for i, op := range fx.facts {
		req.Ops[i] = server.FactOp{Op: verb, S: op.S.String(), P: op.P.String(), O: op.O.String()}
	}
	return req
}

// factOps is F as delta ops, all upserts or all retracts.
func (fx *fixture) factOps(retract bool) []delta.Op {
	ops := make([]delta.Op, len(fx.facts))
	for i, op := range fx.facts {
		op.Retract = retract
		ops[i] = op
	}
	return ops
}

// setStream yields target sets from the Table 4 sampler
// (experiments.SampleSets: sizes 1–3, the five evaluation classes) and never
// yields the same set twice.
type setStream struct {
	env   *experiments.Env
	seed  int64
	round int64
	buf   []experiments.EntitySet
	seen  map[string]bool
}

func newSetStream(env *experiments.Env, seed int64) *setStream {
	return &setStream{env: env, seed: seed, seen: map[string]bool{}}
}

func (s *setStream) next() ([]string, error) {
	for dry := 0; dry < 64; {
		if len(s.buf) == 0 {
			s.round++
			s.buf = experiments.SampleSets(s.env, 1024, s.seed*7919+s.round, 0)
			dry++
		}
		set := s.buf[0].IRIs
		s.buf = s.buf[1:]
		key := setKey(set)
		if !s.seen[key] {
			s.seen[key] = true
			dry = 0
			return set, nil
		}
	}
	return nil, fmt.Errorf("set sampler exhausted after %d sets", len(s.seen))
}

// setKey identifies a target set regardless of member order.
func setKey(set []string) string {
	s := append([]string(nil), set...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// hotPool is the hot workload's key space: every 1–3 subset of
// hotPerClass entities per evaluation class, in a seeded order that the
// zipf sampler ranks. The entities come from the same uniform draw as the
// Table 4 sampler; see the README for why not the most popular ones.
func hotPool(fx *fixture, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed ^ 0x407))
	var pool [][]string
	for _, class := range experiments.EvalClasses(fx.data.Name) {
		members := fx.data.Members[class]
		var ents []string
		for _, i := range rng.Perm(len(members)) {
			if _, ok := fx.env.KB.EntityID(rdf.NewIRI(members[i])); ok {
				ents = append(ents, members[i])
			}
			if len(ents) == hotPerClass {
				break
			}
		}
		for i := range ents {
			pool = append(pool, []string{ents[i]})
			for j := i + 1; j < len(ents); j++ {
				pool = append(pool, []string{ents[i], ents[j]})
				for l := j + 1; l < len(ents); l++ {
					pool = append(pool, []string{ents[i], ents[j], ents[l]})
				}
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// hotStream draws from hotPool by zipf rank.
type hotStream struct {
	pool [][]string
	z    *zipf.Sampler
}

func newHotStream(fx *fixture, seed int64) *hotStream {
	pool := hotPool(fx, seed)
	return &hotStream{pool: pool, z: zipf.NewSampler(rand.New(rand.NewSource(seed^0x2f)), hotZipfS, len(pool))}
}

func (h *hotStream) next() []string { return h.pool[h.z.Next()] }
