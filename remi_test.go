package remi

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const tinyNS = "http://tiny.demo/resource/"

func tinySystem(t *testing.T) *System {
	t.Helper()
	sys, err := GenerateDemo("tiny", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestGenerateDemoVariants(t *testing.T) {
	for _, name := range []string{"tiny", "dbpedia", "wikidata"} {
		sys, err := GenerateDemo(name, 3, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.NumFacts() == 0 || sys.NumEntities() == 0 {
			t.Fatalf("%s: empty KB", name)
		}
	}
	if _, err := GenerateDemo("nope", 1, 0); err == nil {
		t.Fatal("unknown demo accepted")
	}
}

func TestMineParis(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no RE for Paris")
	}
	if !strings.Contains(res.Expression, "capital") {
		t.Errorf("expected the capital RE, got %s", res.Expression)
	}
	if res.NL == "" || res.Bits <= 0 || res.Atoms == 0 {
		t.Fatalf("incomplete solution: %+v", res.Solution)
	}
}

func TestMineUnknownEntity(t *testing.T) {
	sys := tinySystem(t)
	if _, err := sys.Mine([]string{"http://nowhere/x"}); err == nil {
		t.Fatal("unknown entity accepted")
	}
}

// TestMineEmptyTargetSet: empty input fails with the public
// ErrEmptyTargetSet, the error a batch entry carries, so callers outside
// the module can test for it.
func TestMineEmptyTargetSet(t *testing.T) {
	sys := tinySystem(t)
	if _, err := sys.Mine(nil); !errors.Is(err, ErrEmptyTargetSet) {
		t.Fatalf("Mine(nil) error = %v, want ErrEmptyTargetSet", err)
	}
	if _, err := sys.MineContext(context.Background(), []string{}); !errors.Is(err, ErrEmptyTargetSet) {
		t.Fatalf("MineContext(empty) error = %v, want ErrEmptyTargetSet", err)
	}
}

func TestMineOptions(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"},
		WithWorkers(4),
		WithTimeout(30*time.Second),
		WithTopK(3),
		WithMetric(MetricPr),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no RE found")
	}
	// TopK may or may not yield alternatives on the tiny KB, but must not
	// duplicate the main solution.
	for _, alt := range res.Alternatives {
		if alt.Expression == res.Expression {
			t.Fatal("alternative duplicates the solution")
		}
	}
}

// TestConcurrentFirstPrMine fires the first MetricPr mines of a fresh System
// at once: the lazily built pr store must be built once, and every caller
// must get the answer a lone first mine gets. Run it under -race.
func TestConcurrentFirstPrMine(t *testing.T) {
	targets := []string{tinyNS + "Guyana", tinyNS + "Suriname"}
	want, err := tinySystem(t).Mine(targets, WithMetric(MetricPr))
	if err != nil {
		t.Fatal(err)
	}
	sys := tinySystem(t)
	const callers = 8
	results := make([]*Result, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = sys.Mine(targets, WithMetric(MetricPr))
		}()
	}
	close(start)
	wg.Wait()
	store := sys.promPr
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Found != want.Found || res.Expression != want.Expression || res.NL != want.NL || res.Bits != want.Bits {
			t.Fatalf("caller %d mined %q (%v bits), lone first mine %q (%v bits)", i, res.Expression, res.Bits, want.Expression, want.Bits)
		}
	}
	if sys.prEstimator(); sys.promPr != store {
		t.Fatal("pr store rebuilt after the first build")
	}
}

func TestMineStandardLanguage(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"}, WithLanguage(LanguageStandard))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("standard language found nothing for Paris")
	}
	if strings.Contains(res.Expression, "(x, y)") {
		t.Fatalf("standard language produced an existential variable: %s", res.Expression)
	}
}

func TestMineExactRanks(t *testing.T) {
	sys := tinySystem(t)
	res, err := sys.Mine([]string{tinyNS + "Paris"}, WithExactRanks())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("exact ranks found nothing")
	}
}

func TestSummarize(t *testing.T) {
	sys, err := GenerateDemo("dbpedia", 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.Summarize("http://dbpedia.demo/resource/Person_1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) == 0 {
		t.Fatal("empty summary")
	}
	for _, e := range sum {
		if strings.Contains(e.Predicate, "rdf-syntax-ns#type") {
			t.Fatal("summary contains rdf:type")
		}
		if strings.Contains(e.Predicate, "⁻¹") {
			t.Fatal("summary contains an inverse predicate")
		}
	}
}

func TestFromNTriples(t *testing.T) {
	sys, err := FromNTriples(`
<http://e/paris> <http://e/capitalOf> <http://e/france> .
<http://e/lyon> <http://e/cityIn> <http://e/france> .
<http://e/paris> <http://e/cityIn> <http://e/france> .
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Mine([]string{"http://e/paris"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !strings.Contains(res.Expression, "capitalOf") {
		t.Fatalf("got %+v", res)
	}
}

func TestLoadAndSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys := tinySystem(t)

	hdtPath := filepath.Join(dir, "tiny.hdt")
	if err := sys.SaveHDT(hdtPath); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(hdtPath)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.NumEntities() != sys.NumEntities() {
		t.Fatalf("entity count changed: %d vs %d", sys2.NumEntities(), sys.NumEntities())
	}
	res, err := sys2.Mine([]string{tinyNS + "Guyana", tinyNS + "Suriname"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("mining after HDT round trip failed")
	}
}

func TestLoadNTriplesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.nt")
	content := "<http://e/a> <http://e/p> <http://e/b> .\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumFacts() == 0 {
		t.Fatal("no facts loaded")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/does/not/exist.nt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMineNoSolutionResult(t *testing.T) {
	sys, err := FromNTriples(`
<http://e/a> <http://e/p> <http://e/v> .
<http://e/b> <http://e/p> <http://e/v> .
<http://e/c> <http://e/p> <http://e/v> .
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Mine([]string{"http://e/a", "http://e/b"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("impossible RE found: %+v", res.Solution)
	}
}

func TestDescribe(t *testing.T) {
	sys := tinySystem(t)
	label, err := sys.Describe(tinyNS + "Paris")
	if err != nil {
		t.Fatal(err)
	}
	if label != "Paris" {
		t.Fatalf("label = %q", label)
	}
}
