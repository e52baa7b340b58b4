// Package rules implements AutoGlobe's versioned rule registry — the
// piece that turns the controller's rule bases from compile-time string
// constants into administrable data (ROADMAP item 3, the paper's "the
// fuzzy controller can be adapted by the administrator"). An
// administrator adapts a rule base by writing a file: LoadDir reads a
// directory of <name>@v<version>.rules files, checks each (parse,
// vocabulary, compile) before anything is stored, and activates the
// highest version of each name. Every stored base is addressable by
// (name, version) and carries the parsed and vocabulary-validated rules,
// the compiled inference program, and the content hash of its file. A
// candidate is checked offline (Validate, fuzzyc) and shadow-evaluated
// by the controller from a second directory before it takes over as a
// new file and a restart.
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
	// Version is the <version> of the file the base was loaded from (0
	// for an entry Validate returns).
	Version int
	// Hash is the SHA-256 of the source text, hex encoded: two loads of
	// one (name, version) must agree on it.
	Hash string
	// Base is the parsed, validated and compiled rule base.
	Base *fuzzy.RuleBase
}

// Ref names one version for listings.
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

// hash returns the content hash of rule source text.
func hash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// Registry holds the versions of every rule base. Safe for concurrent
// use; reads never block loads for long (loads parse and compile
// outside the lock).
type Registry struct {
	vocab VocabFunc

	mu     sync.RWMutex
	byName map[string][]*Entry // ascending by version
	active map[string]int      // name -> active version
}

// New builds an empty registry validating loads through vocab.
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
// validation-before-activation step every load goes through. No
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
	// Force the lazy compile now so a pathological base fails at load
	// time, never on the inference path.
	base.Compile()
	return &Entry{Name: name, Hash: hash(source), Base: base}, nil
}

// Validate parses, validates and compiles source for name without
// storing anything — the offline check fuzzyc exposes.
func (r *Registry) Validate(name, source string) (*Entry, error) {
	return r.build(name, source)
}

// putVersion stores source under an explicit version, the one its file
// name gives. An existing (name, version) must carry the identical
// hash; anything else is a corruption signal.
func (r *Registry) putVersion(name string, version int, source string) (*Entry, error) {
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

// Active returns the active version of a rule base, if one is activated.
func (r *Registry) Active(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.byName[name] {
		if e.Version == r.active[name] { // versions start at 1: none when unset
			return e, true
		}
	}
	return nil, false
}

// activate marks (name, version) as the active version. The version must
// have been stored first — activation never compiles, so it cannot fail
// halfway.
func (r *Registry) activate(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.byName[name] {
		if e.Version == version {
			r.active[name] = version
			return nil
		}
	}
	return fmt.Errorf("rules: no version %d of %q to activate", version, name)
}

// List returns every stored version as a Ref, sorted by name then
// version.
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
