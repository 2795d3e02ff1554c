package msvet

// facts.go is the package-level fact store of the interprocedural
// engine (DESIGN §16). Analyzing one package produces a PackageFacts
// summary — per-function rank-taint masks, per-function collective-
// sequence summaries, field-taint bits, and the Send/Recv tag table —
// that importing packages consume instead of re-reading the callee's
// source. The shape mirrors golang.org/x/tools/go/analysis Facts: facts
// are computed once per package in dependency order and are keyed by
// stable string object keys ("Name", "(T).Name", "pkg.(T).field").

import (
	"go/types"
	"sort"
	"strings"
	"sync"
)

// A TaintMask records where a value's rank-dependence can come from.
// Bit 0 is the rank-identity source itself (Rank.ID, the mpsim rank id
// field, or anything derived from them); bits 1..62 are the function's
// parameter slots (receiver first for methods), so a callee can report
// "my result is tainted iff argument i is" and the call site resolves
// the mask against the actual arguments.
type TaintMask uint64

// RankTaint is the rank-identity source bit.
const RankTaint TaintMask = 1

// maxParamSlots bounds the parameter slots a mask can express; flows
// through later parameters are dropped (never causing false positives,
// only missed findings in 63-parameter functions).
const maxParamSlots = 62

// ParamTaint returns the mask bit for parameter slot i, or 0 when the
// slot is out of the representable range.
func ParamTaint(slot int) TaintMask {
	if slot < 0 || slot >= maxParamSlots {
		return 0
	}
	return 1 << (uint(slot) + 1)
}

// HasRank reports whether the mask includes the rank-identity source.
func (m TaintMask) HasRank() bool { return m&RankTaint != 0 }

// ParamBits returns only the parameter-slot bits of the mask.
func (m TaintMask) ParamBits() TaintMask { return m &^ RankTaint }

// slots yields the parameter slot indices set in the mask.
func (m TaintMask) slots() []int {
	var out []int
	for i := 0; i < maxParamSlots; i++ {
		if m&ParamTaint(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Dependence classes for summary variants: how the path carrying a
// sequence was selected. This is the summary lattice's height-3 chain —
// none ⊑ param ⊑ rank. Two variants with different sequences are a
// finding only when joined at rank; param defers the verdict to call
// sites, which resolve it against argument taint.
const (
	depNone  uint8 = iota // unconditional, or selected by rank-uniform conditions
	depParam              // selected by a condition on a formal parameter
	depRank               // selected by a rank-derived condition
)

// A Variant is one possible ordered collective sequence through a
// function. Seq elements are mpsim collective method names, "loop{...}"
// digests for uniform-count loops, and "call:pkg.fn" markers for
// opaque callees that may perform collectives.
type Variant struct {
	Seq    []string
	Dep    uint8
	Params TaintMask
}

// A Summary is a function's collective-sequence fact: the set of
// distinct sequences reachable through it. Opaque is the lattice top —
// the function blew the enumeration caps (or recursion), so callers
// treat the whole call as one opaque element instead of inlining.
type Summary struct {
	Variants []Variant
	May      bool
	Opaque   bool
}

// A TagUse is one Send/Recv-family call site with a statically
// resolvable tag key: "v:<n>" for constant tags, "c:<pkg>.<name>" for
// tags built from a named tag-base constant. Dynamic tags are never
// recorded. Allowed marks sites covered by a justified
// //msvet:allow sendrecv annotation, so the repo-wide Finish matching
// can honor suppressions without re-reading source.
type TagUse struct {
	Key     string
	Expr    string
	File    string
	Line    int
	Col     int
	Allowed bool
}

// PackageFacts is everything one package exports to its importers.
// Function keys are "Name" for package-level functions and "(T).Name"
// for methods; field keys are "pkg.(T).field" (globally qualified,
// since any package can taint a field of an imported struct).
//
// Assumes records every answer the store gave about fields tainted
// elsewhere in the module, for this package and (merged in) its module
// imports. The facts and findings hold under any global field set that
// gives the same answers, which is what lets the runner keep them
// across fixpoint rounds.
type PackageFacts struct {
	Path      string
	Taint     map[string][]TaintMask
	Fields    map[string]bool
	Summaries map[string]Summary
	SendTags  []TagUse
	RecvTags  []TagUse
	Assumes   map[string]bool
}

func newPackageFacts(path string) *PackageFacts {
	return &PackageFacts{
		Path:      path,
		Taint:     map[string][]TaintMask{},
		Fields:    map[string]bool{},
		Summaries: map[string]Summary{},
		Assumes:   map[string]bool{},
	}
}

// funcKeyOf returns the fact key of a function within its package and
// the package path, or "" when the function has no stable key (no
// package, or a method on a non-named receiver).
func funcKeyOf(fn *types.Func) (pkgPath, key string) {
	if fn.Pkg() == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", ""
	}
	if recv := sig.Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil {
			return "", ""
		}
		return fn.Pkg().Path(), "(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path(), fn.Name()
}

// namedOf unwraps pointers to the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldKeyOf returns the global fact key of a struct field reached
// through a selection on recv, or "" when the owner is anonymous.
func fieldKeyOf(recv types.Type, field *types.Var) string {
	named := namedOf(recv)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + field.Name()
}

// A FactStore holds the facts of every package touched by one analysis
// round — computed from source, or carried over from the previous
// round — and computes missing ones on demand in import order. It is
// safe for concurrent use by the parallel runner: distinct packages
// compute under distinct entry locks, and the import DAG is acyclic so
// lock order is too.
//
// Cross-package field taint is read from a frozen set (tainted), never
// from sibling entries still being computed, so a package's verdict
// does not depend on scheduling; the runner iterates rounds until the
// set is a fixpoint.
type FactStore struct {
	modPath string
	load    func(path string) (*Package, error)
	tainted map[string]bool
	mu      sync.Mutex
	entries map[string]*factEntry
}

type factEntry struct {
	mu    sync.Mutex
	done  bool
	facts *PackageFacts
	state *pkgAnalysis
	err   error
}

// NewFactStore creates a store for the module rooted at modPath; load
// resolves an import path to its type-checked package (the Loader). No
// field counts as tainted by other packages; the Runner supplies that
// set round by round.
func NewFactStore(modPath string, load func(path string) (*Package, error)) *FactStore {
	return newRoundStore(modPath, load, nil)
}

// newRoundStore creates a store whose cross-package field taint is the
// given frozen set.
func newRoundStore(modPath string, load func(path string) (*Package, error), tainted map[string]bool) *FactStore {
	return &FactStore{modPath: modPath, load: load, tainted: tainted, entries: map[string]*factEntry{}}
}

// inModule reports whether path belongs to the analyzed module — the
// only packages that can carry facts (nothing outside the module can
// import mpsim).
func (s *FactStore) inModule(path string) bool {
	return path == s.modPath || strings.HasPrefix(path, s.modPath+"/")
}

func (s *FactStore) entry(path string) *factEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[path]
	if e == nil {
		e = &factEntry{}
		s.entries[path] = e
	}
	return e
}

// carry installs facts from an earlier round whose answers still hold,
// so importers consume them without the package being analyzed again.
func (s *FactStore) carry(path string, facts *PackageFacts) {
	e := s.entry(path)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.facts, e.done = facts, true
	}
}

// Facts returns the facts of an import path, computing them (loading
// and analyzing the package, and transitively its module dependencies)
// on first use. Non-module paths yield empty facts.
func (s *FactStore) Facts(path string) (*PackageFacts, error) {
	if !s.inModule(path) {
		return newPackageFacts(path), nil
	}
	e := s.entry(path)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.facts, e.err
	}
	p, err := s.load(path)
	if err == nil {
		e.state, err = analyzePackage(p, s)
		if e.state != nil {
			e.facts = e.state.facts
		}
	}
	e.err, e.done = err, true
	return e.facts, e.err
}

// EnsureFor computes (or returns) the analysis state of an
// already-loaded package. Unlike Facts it never settles for carried
// facts alone: analyzers need the in-memory state (taint environments,
// pending diagnostics), so a facts-only entry is recomputed.
func (s *FactStore) EnsureFor(p *Package) (*pkgAnalysis, error) {
	e := s.entry(p.Pkg.Path())
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != nil || (e.done && e.err != nil) {
		return e.state, e.err
	}
	st, err := analyzePackage(p, s)
	if err != nil {
		e.err, e.done = err, true
		return nil, err
	}
	e.state, e.facts, e.err, e.done = st, st.facts, nil, true
	return st, nil
}

// FieldTainted reports whether the field key is in the store's frozen
// cross-package taint set.
func (s *FactStore) FieldTainted(key string) bool {
	return s.tainted[key]
}

// holds reports whether facts computed under some field set stay valid
// under this store's: every recorded answer is unchanged.
func (s *FactStore) holds(f *PackageFacts) bool {
	if f == nil {
		return false
	}
	for key, was := range f.Assumes {
		if s.tainted[key] != was {
			return false
		}
	}
	return true
}

// taintedFields returns the union of the store's frozen set and every
// completed package's tainted fields: the next round's frozen set.
func (s *FactStore) taintedFields() map[string]bool {
	out := map[string]bool{}
	for key := range s.tainted {
		out[key] = true
	}
	for _, path := range s.Paths() {
		for key := range s.factsOf(path).Fields {
			out[key] = true
		}
	}
	return out
}

// Paths returns the import paths with completed facts, sorted.
func (s *FactStore) Paths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for path, e := range s.entries {
		if e.done && e.facts != nil {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// factsOf returns completed facts without computing, or nil.
func (s *FactStore) factsOf(path string) *PackageFacts {
	s.mu.Lock()
	e := s.entries[path]
	s.mu.Unlock()
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.facts
	}
	return nil
}

// importFacts returns another package's facts and adopts the field
// answers they rest on: this package's verdict now rests on them too.
func (a *pkgAnalysis) importFacts(pkgPath string) (*PackageFacts, error) {
	facts, err := a.store.Facts(pkgPath)
	if err == nil && facts != nil {
		for key, was := range facts.Assumes {
			a.facts.Assumes[key] = was
		}
	}
	return facts, err
}

// taintFactFor resolves a callee's taint fact across package
// boundaries: the current package's in-progress facts for local
// callees, the store for imported ones. The bool reports whether a fact
// exists at all.
func (a *pkgAnalysis) taintFactFor(fn *types.Func) ([]TaintMask, bool) {
	pkgPath, key := funcKeyOf(fn)
	if key == "" {
		return nil, false
	}
	if pkgPath == a.p.Pkg.Path() {
		masks, ok := a.facts.Taint[key]
		return masks, ok
	}
	facts, err := a.importFacts(pkgPath)
	if err != nil || facts == nil {
		return nil, false
	}
	masks, ok := facts.Taint[key]
	return masks, ok
}

// summaryFor resolves a callee's collective summary the same way.
func (a *pkgAnalysis) summaryFor(fn *types.Func) (Summary, bool) {
	pkgPath, key := funcKeyOf(fn)
	if key == "" {
		return Summary{}, false
	}
	if pkgPath == a.p.Pkg.Path() {
		if a.building[key] {
			// Recursive cycle: the callee's summary is opaque from
			// inside its own computation. May is resolved through the
			// call graph, which handles cycles itself.
			return Summary{Opaque: true, May: a.graph.reaches(key)}, true
		}
		if sum, ok := a.facts.Summaries[key]; ok {
			return sum, true
		}
		if fi, ok := a.funcIndex[key]; ok {
			a.buildSummary(fi)
			sum, ok := a.facts.Summaries[key]
			return sum, ok
		}
		return Summary{}, false
	}
	facts, err := a.importFacts(pkgPath)
	if err != nil || facts == nil {
		return Summary{}, false
	}
	sum, ok := facts.Summaries[key]
	return sum, ok
}

func seqString(seq []string) string {
	if len(seq) == 0 {
		return "(no collectives)"
	}
	return "[" + strings.Join(seq, " ") + "]"
}
