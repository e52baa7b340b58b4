// Package rules implements AutoGlobe's versioned rule registry — the
// piece that turns the controller's rule bases from compile-time string
// constants into administrable data (ROADMAP item 3, the paper's "the
// fuzzy controller can be adapted by the administrator"). Every rule
// base is addressable by (name, version) and carries its source text,
// the parsed and vocabulary-validated rules, the compiled inference
// program, and a content hash. Versions are append-only: a push of new
// source yields the next version, a push of byte-identical source is
// idempotent and returns the version that already holds it. Exactly one
// version per name is active; activation is an explicit step so a
// candidate can be validated — and shadow-evaluated by the controller —
// before it takes over.
package rules

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"autoglobe/internal/fuzzy"
)

// Entry is one immutable version of a rule base.
type Entry struct {
	// Name addresses the rule base, e.g. "serviceOverloaded" or
	// "select/placement" (selection bases live under "select/").
	Name string
	// Version is 1 for the first push of a name and increments per push.
	Version int
	// Hash is the SHA-256 of Source, hex encoded — the identity a
	// coordinator and an offline tool compare without shipping sources.
	Hash string
	// Source is the rule text exactly as pushed.
	Source string
	// Base is the parsed, validated and compiled rule base.
	Base *fuzzy.RuleBase
}

// Ref names one version for listings and journal records.
type Ref struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	Active  bool   `json:"active"`
	Rules   int    `json:"rules"`
}

// VocabFunc maps a rule-base name to the vocabulary its rules must be
// validated against. Returning nil rejects the name. The controller's
// convention: names under "select/" use the server-selection
// vocabulary, everything else the action-selection vocabulary.
type VocabFunc func(name string) *fuzzy.Vocabulary

// Hash returns the content hash of rule source text.
func Hash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// Registry holds the versions of every rule base. Safe for concurrent
// use; reads never block pushes for long (pushes parse and compile
// outside the lock).
type Registry struct {
	vocab VocabFunc

	mu     sync.RWMutex
	byName map[string][]*Entry // ascending by version
	active map[string]int      // name -> active version
}

// New builds an empty registry validating pushes through vocab.
func New(vocab VocabFunc) *Registry {
	if vocab == nil {
		panic("rules: nil VocabFunc")
	}
	return &Registry{
		vocab:  vocab,
		byName: make(map[string][]*Entry),
		active: make(map[string]int),
	}
}

// build parses, validates and compiles source for name — the
// validation-before-activation step every push goes through. No
// registry state is touched.
func (r *Registry) build(name, source string) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("rules: empty rule-base name")
	}
	if strings.ContainsAny(name, " \t\n") {
		return nil, fmt.Errorf("rules: invalid rule-base name %q", name)
	}
	vocab := r.vocab(name)
	if vocab == nil {
		return nil, fmt.Errorf("rules: no vocabulary for rule base %q", name)
	}
	parsed, err := fuzzy.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("rules: %s: %w", name, err)
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("rules: %s: no rules in source", name)
	}
	base, err := fuzzy.NewRuleBase(name, vocab, parsed)
	if err != nil {
		return nil, fmt.Errorf("rules: %s: %w", name, err)
	}
	// Force the lazy compile now so a pathological base fails at push
	// time, never on the inference path.
	base.Compile()
	return &Entry{Name: name, Hash: Hash(source), Source: source, Base: base}, nil
}

// Validate parses, validates and compiles source for name without
// storing anything — the offline check fuzzyc exposes.
func (r *Registry) Validate(name, source string) (*Entry, error) {
	return r.build(name, source)
}

// Put stores source as the next version of name (or returns the
// existing version if an identical source is already stored). The new
// version is NOT activated; see Activate.
func (r *Registry) Put(name, source string) (*Entry, error) {
	e, err := r.build(name, source)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.byName[name] {
		if have.Hash == e.Hash {
			return have, nil
		}
	}
	e.Version = 1
	if n := len(r.byName[name]); n > 0 {
		e.Version = r.byName[name][n-1].Version + 1
	}
	e.Base.Version = e.Version // the base is still ours alone
	r.byName[name] = append(r.byName[name], e)
	return e, nil
}

// PutVersion stores source under an explicit version — journal recovery
// replaying logged pushes. An existing (name, version) must carry the
// identical hash; anything else is a corruption signal.
func (r *Registry) PutVersion(name string, version int, source string) (*Entry, error) {
	if version < 1 {
		return nil, fmt.Errorf("rules: %s: invalid version %d", name, version)
	}
	e, err := r.build(name, source)
	if err != nil {
		return nil, err
	}
	e.Version, e.Base.Version = version, version
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.byName[name]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Version >= version })
	if i < len(vs) && vs[i].Version == version {
		if vs[i].Hash != e.Hash {
			return nil, fmt.Errorf("rules: %s@%d already stored with different hash", name, version)
		}
		return vs[i], nil
	}
	vs = append(vs, nil)
	copy(vs[i+1:], vs[i:])
	vs[i] = e
	r.byName[name] = vs
	return e, nil
}

// Get returns one version of a rule base. version 0 means the active
// version.
func (r *Registry) Get(name string, version int) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if version == 0 {
		version = r.active[name]
		if version == 0 {
			return nil, false
		}
	}
	for _, e := range r.byName[name] {
		if e.Version == version {
			return e, true
		}
	}
	return nil, false
}

// Active returns the active version of a rule base, if one is activated.
func (r *Registry) Active(name string) (*Entry, bool) {
	return r.Get(name, 0)
}

// Activate marks (name, version) as the active version and returns its
// entry. The version must have been Put first — activation never
// compiles, so it cannot fail halfway.
func (r *Registry) Activate(name string, version int) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.byName[name] {
		if e.Version == version {
			r.active[name] = version
			return e, nil
		}
	}
	return nil, fmt.Errorf("rules: no version %d of %q to activate", version, name)
}

// List returns every stored version as a Ref, sorted by name then
// version — the payload of the ruleList wire reply.
func (r *Registry) List() []Ref {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Ref
	for _, name := range r.sortedNamesLocked() {
		for _, e := range r.byName[name] {
			out = append(out, Ref{
				Name:    e.Name,
				Version: e.Version,
				Hash:    e.Hash,
				Active:  r.active[name] == e.Version,
				Rules:   e.Base.Len(),
			})
		}
	}
	return out
}

func (r *Registry) sortedNamesLocked() []string {
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
