package msvet

// cache.go is the content-hash finding/fact cache that keeps the suite
// in the inner loop (DESIGN §16). A package's cache key is the sha256 of
// everything its verdict can depend on: a salt (Go version, analyzer
// names, allow-checking mode), its import path, the names and content
// hashes of its Go files, and — transitively — the keys of its module
// dependencies. An unchanged package therefore replays its findings and
// its exported facts from one small JSON file without being parsed or
// type-checked; editing one file invalidates exactly that package and
// its reverse dependencies, because only their keys change.
//
// A package's facts also rest on which fields other packages taint,
// which its key cannot see (the writer need not be an import). Each
// key's file therefore holds one entry per distinct set of answers
// (PackageFacts.Assumes), and a lookup replays only an entry whose
// answers match the run's current field set.
//
// Entries are written via temp-file + rename, so concurrent runs (two
// terminals, an editor save hook and CI) race benignly: both compute
// the same bytes for the same key, and rename is atomic.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/build"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// DefaultCacheDir returns the cache location for a module root: inside
// the module, next to the sources it derives from, so CI can key it
// alongside the go module cache and `git clean -x` removes it.
func DefaultCacheDir(modRoot string) string {
	return filepath.Join(modRoot, ".msvet-cache")
}

// A Cache maps package import paths to cached analysis results.
type Cache struct {
	dir     string
	modRoot string
	modPath string
	salt    string
	ctx     build.Context

	mu   sync.Mutex
	keys map[string]string   // import path -> content key ("" = uncacheable)
	deps map[string][]string // import path -> module-internal imports
	err  map[string]error
}

// CacheEntry is one cached package verdict: the allow-filtered findings
// of the per-package analyzers, and the facts importers consume. Finish
// findings are deliberately absent — they are recomputed from the facts
// on every run, so global verdicts stay correct when *other* packages
// change.
type CacheEntry struct {
	Findings []Finding     `json:"findings,omitempty"`
	Facts    *PackageFacts `json:"facts"`
}

// NewCache opens (creating if needed) a cache directory for the module.
// The analyzer set and allow mode are salted into every key: runs with
// different selections never share entries.
func NewCache(dir string, l *Loader, analyzers []*Analyzer, checkAllows bool) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("msvet: cache: %w", err)
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return &Cache{
		dir:     dir,
		modRoot: l.ModRoot(),
		modPath: l.ModPath(),
		salt:    fmt.Sprintf("msvet-v2|%s|%s|%v", runtime.Version(), strings.Join(names, ","), checkAllows),
		ctx:     buildCtxNoCgo(),
		keys:    map[string]string{},
		deps:    map[string][]string{},
		err:     map[string]error{},
	}, nil
}

func buildCtxNoCgo() build.Context {
	ctx := build.Default
	ctx.CgoEnabled = false
	return ctx
}

func (c *Cache) dirOf(path string) (string, bool) {
	if path == c.modPath {
		return c.modRoot, true
	}
	if rest, ok := strings.CutPrefix(path, c.modPath+"/"); ok {
		return filepath.Join(c.modRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Deps returns the module-internal imports of a package, scanned from
// file headers only (no type-checking). Used both for key derivation
// and for the runner's dependency waves.
func (c *Cache) Deps(path string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depsLocked(path)
}

func (c *Cache) depsLocked(path string) ([]string, error) {
	if d, ok := c.deps[path]; ok {
		return d, c.err[path]
	}
	dir, ok := c.dirOf(path)
	if !ok {
		c.deps[path] = nil
		return nil, nil
	}
	bp, err := c.ctx.ImportDir(dir, 0)
	if err != nil {
		c.deps[path], c.err[path] = nil, err
		return nil, err
	}
	var deps []string
	for _, imp := range bp.Imports {
		if imp == c.modPath || strings.HasPrefix(imp, c.modPath+"/") {
			deps = append(deps, imp)
		}
	}
	sort.Strings(deps)
	c.deps[path] = deps
	return deps, nil
}

// Key returns the content key of a module package, deriving it (and its
// dependencies' keys) on first use.
func (c *Cache) Key(path string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keyLocked(path, map[string]bool{})
}

func (c *Cache) keyLocked(path string, visiting map[string]bool) (string, error) {
	if k, ok := c.keys[path]; ok {
		return k, c.err[path]
	}
	if visiting[path] {
		return "", fmt.Errorf("msvet: cache: import cycle through %s", path)
	}
	visiting[path] = true
	defer delete(visiting, path)

	dir, ok := c.dirOf(path)
	if !ok {
		return "", fmt.Errorf("msvet: cache: %s is outside the module", path)
	}
	bp, err := c.ctx.ImportDir(dir, 0)
	if err != nil {
		c.keys[path], c.err[path] = "", err
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", c.salt, path)
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			c.keys[path], c.err[path] = "", err
			return "", err
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "%s\x00%s\x00", name, hex.EncodeToString(sum[:]))
	}
	deps, err := c.depsLocked(path)
	if err != nil {
		c.keys[path], c.err[path] = "", err
		return "", err
	}
	for _, dep := range deps {
		dk, err := c.keyLocked(dep, visiting)
		if err != nil {
			c.keys[path], c.err[path] = "", err
			return "", err
		}
		fmt.Fprintf(h, "dep\x00%s\x00%s\x00", dep, dk)
	}
	key := hex.EncodeToString(h.Sum(nil))
	c.keys[path] = key
	return key, nil
}

func (c *Cache) entryFile(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// maxCacheVariants bounds the entries kept per key; the fixpoint rounds of
// one run need one per round that changes the package's answers.
const maxCacheVariants = 4

// Get returns the cached entry for a key whose facts the caller
// accepts, or false.
func (c *Cache) Get(key string, accept func(*PackageFacts) bool) (*CacheEntry, bool) {
	for _, e := range c.variants(key) {
		if accept(e.Facts) {
			return e, true
		}
	}
	return nil, false
}

// variants reads every entry stored under a key. A missing, corrupt or
// half-written file reads as none; the next Put repairs it.
func (c *Cache) variants(key string) []*CacheEntry {
	data, err := os.ReadFile(c.entryFile(key))
	if err != nil {
		return nil
	}
	var es []*CacheEntry
	if err := json.Unmarshal(data, &es); err != nil {
		return nil
	}
	out := es[:0]
	for _, e := range es {
		if e != nil && e.Facts != nil {
			out = append(out, e)
		}
	}
	return out
}

// Put stores an entry under a key, atomically, replacing an entry with
// the same answers and dropping the oldest beyond maxCacheVariants.
func (c *Cache) Put(key string, e *CacheEntry) error {
	es := []*CacheEntry{e}
	for _, old := range c.variants(key) {
		if len(es) < maxCacheVariants && !maps.Equal(old.Facts.Assumes, e.Facts.Assumes) {
			es = append(es, old)
		}
	}
	data, err := json.Marshal(es)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, c.entryFile(key))
}
