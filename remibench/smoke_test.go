package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against: every declared metric must come out of a run with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every declared workload, plain and traced, on a tiny KB
// for one second each and checks the output contract: every declared
// metric with its unit, every answer matching its golden, and a trace file
// whose rung spans share request ids.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches remi-serve")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "remi-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/remi-kb/remi/cmd/remi-serve").CombinedOutput(); err != nil {
		t.Fatalf("building remi-serve: %v\n%s", err, out)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, scale: 0.2,
				serveBin: bin, workDir: filepath.Join(dir, "work"), nproc: 2}
			var buf bytes.Buffer
			if err := run(cfg, &buf); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			var rep struct {
				Report struct {
					GoldenMismatches int    `json:"golden_mismatches"`
					TraceFile        string `json:"trace_file"`
				} `json:"report"`
			}
			if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
				t.Fatalf("%s trace=%v: report line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || rep.Report.GoldenMismatches != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d mismatches=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, rep.Report.GoldenMismatches, lines[0])
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				checkTraceFile(t, rep.Report.TraceFile)
			}
		}
	}
}

// checkTraceFile requires spans of several rungs under one request id.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rungs := map[string]map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rungs[sp.Req] == nil {
			rungs[sp.Req] = map[string]bool{}
		}
		rungs[sp.Req][sp.Rung] = true
	}
	for _, need := range []string{"core.mine", "facade.mine", "server.handler", "http.loopback"} {
		shared := false
		for _, rs := range rungs {
			if rs[need] && len(rs) > 1 {
				shared = true
				break
			}
		}
		if !shared {
			t.Errorf("%s: no request id carries a %s span beside another rung", path, need)
		}
	}
}
