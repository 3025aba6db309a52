package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp records the environment a result was measured in, so results from
// different machines are never compared as if they were alike.
type stamp struct {
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	Scale         float64 `json:"scale"`
	KBFacts       int     `json:"kb_facts"`
	KBEntities    int     `json:"kb_entities"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
}

func stampOf(cfg config, fx *fixture) stamp {
	return stamp{
		CPUModel:      cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		Seed:          cfg.seed,
		Scale:         cfg.scale,
		KBFacts:       fx.env.KB.NumFacts(),
		KBEntities:    fx.env.KB.NumEntities(),
		SnapshotBytes: fx.snapBytes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, read from .git in the working
// directory (nothing outside the checkout is read), or "unknown" when the
// checkout is not a git work tree.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
