package msvet

// runner.go is the analysis driver: it schedules packages in dependency
// waves (a package runs only after every module dependency has facts),
// fans each wave out over the repo's own kernel.Pool, repeats rounds
// until cross-package field taint is a fixpoint, and finally runs the
// repo-wide Finish hooks over the completed fact store. This is the
// one entry point cmd/msvet, the repo-clean test, and the benchmark all
// share, so their findings are identical by construction.

import (
	"fmt"
	"sort"
	"sync"

	"parms/internal/kernel"
)

// A Runner executes the analyzer suite over a set of module packages.
type Runner struct {
	Loader      *Loader
	Analyzers   []*Analyzer
	CheckAllows bool
	// Workers bounds the per-wave parallelism; 0 means one worker per
	// logical CPU (kernel.AutoWorkers for a single "rank").
	Workers int
}

// RunStats reports what a run did, for -stats output.
type RunStats struct {
	Packages int   // packages requested
	Rounds   []int // packages analyzed in each fixpoint round
}

// Run analyzes the given module packages and returns the merged,
// position-sorted findings (per-package analyzers plus Finish hooks).
//
// Field taint crosses package boundaries in both directions (any
// package may taint a field another package branches on), so it is
// solved as a module-wide fixpoint: each round analyzes against a
// frozen set of tainted fields, starting empty; packages whose recorded
// answers still hold carry over, the rest re-run against the grown set
// until it stops growing.
func (r *Runner) Run(paths []string) ([]Finding, *RunStats, error) {
	waves, err := r.waves(paths)
	if err != nil {
		return nil, nil, err
	}

	workers := r.Workers
	if workers <= 0 {
		workers = kernel.AutoWorkers(1)
	}
	pool := kernel.New(workers)

	stats := &RunStats{Packages: len(paths)}
	results := map[string][]Finding{}
	todo := map[string]bool{}
	for _, p := range paths {
		todo[p] = true
	}
	var tainted map[string]bool
	store := newRoundStore(r.Loader.ModPath(), r.Loader.Load, tainted)
	for {
		if err := r.runRound(pool, waves, todo, store, results); err != nil {
			return nil, nil, err
		}
		stats.Rounds = append(stats.Rounds, len(todo))
		grown := store.taintedFields()
		if len(grown) == len(tainted) {
			break
		}
		tainted = grown
		next := newRoundStore(r.Loader.ModPath(), r.Loader.Load, tainted)
		for _, path := range store.Paths() {
			if facts := store.factsOf(path); next.holds(facts) {
				next.carry(path, facts)
			}
		}
		todo = map[string]bool{}
		for _, p := range paths {
			if !next.holds(store.factsOf(p)) {
				todo[p] = true
			}
		}
		store = next
	}

	var findings []Finding
	for _, p := range paths {
		findings = append(findings, results[p]...)
	}
	for _, a := range r.Analyzers {
		if a.Finish != nil {
			findings = append(findings, a.Finish(store)...)
		}
	}
	sortFindings(findings)
	return findings, stats, nil
}

// runRound analyzes the todo packages wave by wave into store,
// recording each one's findings.
func (r *Runner) runRound(pool *kernel.Pool, waves [][]string, todo map[string]bool, store *FactStore, results map[string][]Finding) error {
	var mu sync.Mutex
	var firstErr error
	for _, wave := range waves {
		var run []string
		for _, path := range wave {
			if todo[path] {
				run = append(run, path)
			}
		}
		pool.Run(len(run), 1, func(_, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				path := run[i]
				p, err := r.Loader.Load(path)
				var fs []Finding
				if err == nil {
					fs, err = RunPackage(p, r.Analyzers, r.CheckAllows, store)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				results[path] = fs
				mu.Unlock()
			}
		})
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// waves topologically layers the requested packages: wave k holds the
// packages whose module dependencies (within the requested set) all sit
// in earlier waves, so a wave's packages never wait on each other and
// can run fully parallel.
func (r *Runner) waves(paths []string) ([][]string, error) {
	deps, err := r.depGraph(paths)
	if err != nil {
		return nil, err
	}
	inSet := map[string]bool{}
	for _, p := range paths {
		inSet[p] = true
	}
	level := map[string]int{}
	var rank func(p string, visiting map[string]bool) (int, error)
	rank = func(p string, visiting map[string]bool) (int, error) {
		if l, ok := level[p]; ok {
			return l, nil
		}
		if visiting[p] {
			return 0, fmt.Errorf("msvet: import cycle through %s", p)
		}
		visiting[p] = true
		defer delete(visiting, p)
		l := 0
		for _, d := range deps[p] {
			if !inSet[d] {
				continue
			}
			dl, err := rank(d, visiting)
			if err != nil {
				return 0, err
			}
			if dl+1 > l {
				l = dl + 1
			}
		}
		level[p] = l
		return l, nil
	}
	maxLevel := 0
	for _, p := range paths {
		l, err := rank(p, map[string]bool{})
		if err != nil {
			return nil, err
		}
		if l > maxLevel {
			maxLevel = l
		}
	}
	waves := make([][]string, maxLevel+1)
	for _, p := range paths {
		waves[level[p]] = append(waves[level[p]], p)
	}
	for _, w := range waves {
		sort.Strings(w)
	}
	return waves, nil
}

// depGraph scans the module-internal imports of each package from its
// file headers.
func (r *Runner) depGraph(paths []string) (map[string][]string, error) {
	graph := map[string][]string{}
	for _, p := range paths {
		deps, err := r.Loader.Imports(p)
		if err != nil {
			return nil, fmt.Errorf("msvet: scan %s: %w", p, err)
		}
		graph[p] = deps
	}
	return graph, nil
}

func sortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
}
