package msvet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runModule runs the full suite over the module rooted at root with a
// fresh loader.
func runModule(t *testing.T, root string) ([]Finding, *RunStats) {
	t.Helper()
	l := NewLoader(root, "parms")
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Loader: l, Analyzers: Analyzers(), CheckAllows: true}
	findings, stats, err := r.Run(paths)
	if err != nil {
		t.Fatal(err)
	}
	return findings, stats
}

// moduleCopy clones the fixture module into a temp dir so probe edits
// never touch the repo tree.
func moduleCopy(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	src, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// renderFindings flattens findings to their printed form, so failure
// messages show exactly what users see.
func renderFindings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprint(f)
	}
	return out
}

// TestSeededDeadlockModule is the end-to-end check: the self-contained
// fixture module seeds one collective mismatch that is only visible
// across two call frames and a package boundary (pipeline.Drive →
// compute.Stage → compute.ReduceAll), and a full Runner pass over the
// module must flag exactly that call site.
func TestSeededDeadlockModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	findings, stats := runModule(t, root)
	if stats.Packages != 3 {
		t.Fatalf("module has %d packages, want 3", stats.Packages)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the seeded mismatch: %v", len(findings), renderFindings(findings))
	}
	f := findings[0]
	if f.Analyzer != "spmd" {
		t.Errorf("finding analyzer = %q, want spmd", f.Analyzer)
	}
	if !strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), "internal/pipeline/pipeline.go") {
		t.Errorf("finding at %s, want the pipeline call site", f.Pos.Filename)
	}
	if !strings.Contains(f.Message, "call to Stage selects between mismatched collective sequences") {
		t.Errorf("finding message %q does not name the cross-call divergence", f.Message)
	}
}

// BenchmarkRunRepo is the self-benchmark: one full pass of the suite
// over the whole module per iteration, loading and type-checking every
// package from source.
func BenchmarkRunRepo(b *testing.B) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l := NewLoader(root, "parms")
		paths, err := l.ModulePackages()
		if err != nil {
			b.Fatal(err)
		}
		r := &Runner{Loader: l, Analyzers: Analyzers(), CheckAllows: true}
		if _, _, err := r.Run(paths); err != nil {
			b.Fatal(err)
		}
	}
}
