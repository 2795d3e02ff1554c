package msvet

// callgraph.go builds the whole-repo call graph the interprocedural
// analyzers walk (DESIGN §16). Edges are static: package-level calls,
// concrete-receiver method calls, and locally referenced function
// identifiers. Dynamic dispatch (interface methods, func values) has no
// edge — an unknown callee is assumed collective-free, which is safe
// for every analyzer here because collectives live on the concrete
// *mpsim.Rank and the repo never hides one behind an interface.
//
// Within a package the graph is explicit (key → callee keys); across
// packages the callee's exported facts stand in for its subgraph, so
// the graph composes package by package exactly like the fact store.

import (
	"go/ast"
)

// callGraph is the intra-package slice of the repo call graph, plus the
// cross-package "may reach a collective" closure resolved through
// imported facts.
type callGraph struct {
	a *pkgAnalysis
	// edges maps a function key to its statically resolved callees:
	// local keys for same-package callees, "path\x00key" for imports.
	edges map[string][]edge
	// direct marks functions whose own body contains an mpsim
	// collective call.
	direct map[string]bool
	// reachMemo holds the package-wide may-reach closure, computed once
	// on first use (nil until then).
	reachMemo map[string]bool
}

type edge struct {
	pkgPath string // "" for same-package callees
	key     string
}

// buildCallGraph scans every function body once and records its static
// call edges and direct collective uses. Function-literal bodies count
// toward their enclosing declaration: a collective inside a closure is
// still entered by the rank running the function.
func buildCallGraph(a *pkgAnalysis) *callGraph {
	g := &callGraph{
		a:      a,
		edges:  map[string][]edge{},
		direct: map[string]bool{},
	}
	for _, fi := range a.funcs {
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := methodOn(a.p.Info, call, mpsimPath, "Rank"); ok && collectiveMethods[name] {
				g.direct[fi.key] = true
				return true
			}
			fn := staticCallee(a.p.Info, call)
			if fn == nil {
				return true
			}
			pkgPath, key := funcKeyOf(fn)
			if key == "" {
				return true
			}
			if pkgPath == a.p.Pkg.Path() {
				g.edges[fi.key] = append(g.edges[fi.key], edge{"", key})
			} else {
				g.edges[fi.key] = append(g.edges[fi.key], edge{pkgPath, key})
			}
			return true
		})
	}
	return g
}

// reaches reports whether a collective call is reachable from the
// function with the given local key — directly, through same-package
// callees (cycles included), or through imported functions whose facts
// say so.
func (g *callGraph) reaches(key string) bool {
	if g.reachMemo == nil {
		g.computeReach()
	}
	return g.reachMemo[key]
}

// computeReach resolves the package's whole may-reach set as one
// monotone fixpoint: seed with functions whose bodies contain a
// collective, propagate backwards along edges until stable. The
// fixpoint handles cycles for free and visits each edge at most
// once per pass, where a naive DFS re-explores shared subgraphs
// exponentially. Cross-package edges consult the callee's exported
// summary once each.
func (g *callGraph) computeReach() {
	memo := make(map[string]bool, len(g.edges))
	extern := map[edge]bool{}
	externMay := func(e edge) bool {
		if v, ok := extern[e]; ok {
			return v
		}
		v := false
		if facts, err := g.a.importFacts(e.pkgPath); err == nil && facts != nil {
			if sum, ok := facts.Summaries[e.key]; ok && sum.May {
				v = true
			}
		}
		extern[e] = v
		return v
	}
	for k := range g.direct {
		memo[k] = true
	}
	for changed := true; changed; {
		changed = false
		for key, edges := range g.edges {
			if memo[key] {
				continue
			}
			for _, e := range edges {
				hit := false
				if e.pkgPath == "" {
					hit = memo[e.key]
				} else {
					hit = externMay(e)
				}
				if hit {
					memo[key] = true
					changed = true
					break
				}
			}
		}
	}
	g.reachMemo = memo
}
