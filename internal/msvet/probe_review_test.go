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
	findings, _ := runModule(t, root)
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) == "probe.go" {
			t.Errorf("unexpected finding: %v", f)
		}
	}
}

// probe: sibling-package field taint. Package aa holds a struct field,
// package bb (not imported by cc) taints it with r.ID(), package cc
// branches on the field between two collective orders. The divergence
// is one finding; once bb stops tainting the field, cc is clean.
func TestProbeSiblingFieldTaint(t *testing.T) {
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
	inCC := func(fs []Finding) []string {
		var out []string
		for _, f := range fs {
			if filepath.Base(f.Pos.Filename) == "cc.go" {
				out = append(out, f.String())
			}
		}
		return out
	}
	tainted, _ := runModule(t, root)
	if got := inCC(tainted); len(got) != 1 {
		t.Errorf("with bb tainting Lead, cc has %d findings, want 1: %v", len(got), got)
	}

	// Remove the taint in bb; cc's verdict changes with it.
	mk("internal/bb/bb.go", `package bb

import (
	"parms/internal/aa"
	"parms/internal/mpsim"
)

func Taint(r *mpsim.Rank, s *aa.State) {
	s.Lead = r.Size() > 1
}
`)
	uniform, _ := runModule(t, root)
	if got := inCC(uniform); len(got) != 0 {
		t.Errorf("with Lead uniform, cc has findings: %v", got)
	}
}
