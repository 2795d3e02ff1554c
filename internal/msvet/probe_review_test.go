package msvet

import (
	"os"
	"path/filepath"
	"testing"
)

// probe: break inside a rank-dependent switch (no collectives at all).
func TestProbeBreakInSwitch(t *testing.T) {
	root := moduleCopy(t)
	src := `package compute

import "parms/internal/mpsim"

func SwitchBreak(r *mpsim.Rank) {
	switch {
	case r.ID() == 0:
		break
	default:
	}
}
`
	if err := os.WriteFile(filepath.Join(root, "internal", "compute", "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, _ := runModule(t, root, "")
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) == "probe.go" {
			t.Errorf("unexpected finding: %v", f)
		}
	}
}

// probe: sibling-package field taint vs the cache. Package a holds a
// struct field, package b (not imported by c) taints it with r.ID(),
// package c branches on the field between two collective orders.
func TestProbeSiblingFieldTaintCache(t *testing.T) {
	root := moduleCopy(t)
	mk := func(rel, src string) {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk("internal/aa/aa.go", `package aa

type State struct{ Lead bool }
`)
	mk("internal/bb/bb.go", `package bb

import (
	"parms/internal/aa"
	"parms/internal/mpsim"
)

func Taint(r *mpsim.Rank, s *aa.State) {
	s.Lead = r.ID() == 0
}
`)
	mk("internal/cc/cc.go", `package cc

import (
	"parms/internal/aa"
	"parms/internal/mpsim"
)

func Diverge(r *mpsim.Rank, s *aa.State) {
	if s.Lead {
		r.Barrier()
	} else {
		r.AllreduceFloat64(1, "sum")
	}
}
`)
	cache := t.TempDir()
	cold, _ := runModule(t, root, cache)
	count := func(fs []Finding) int {
		n := 0
		for _, f := range fs {
			if filepath.Base(f.Pos.Filename) == "cc.go" {
				n++
			}
		}
		return n
	}
	t.Logf("cold cc findings: %d", count(cold))
	if count(cold) == 0 {
		t.Errorf("cold run missed cc's branch on the field bb taints")
	}

	// Remove the taint in bb; cc's verdict should change with it.
	mk("internal/bb/bb.go", `package bb

import (
	"parms/internal/aa"
	"parms/internal/mpsim"
)

func Taint(r *mpsim.Rank, s *aa.State) {
	s.Lead = r.Size() > 1
}
`)
	warm, stats := runModule(t, root, cache)
	t.Logf("warm cc findings: %d (analyzed: %v)", count(warm), stats.Analyzed)
	nocache, _ := runModule(t, root, "")
	t.Logf("nocache cc findings: %d", count(nocache))
	if count(warm) != count(nocache) {
		t.Errorf("cache staleness: warm=%d findings in cc, uncached=%d", count(warm), count(nocache))
	}
}
