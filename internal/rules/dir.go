package rules

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Rule-base files on disk are named <name>@v<version>.rules, with '/'
// in the name mapping to subdirectories (select/placement@v2.rules).
// The file body is the rule source; its content hash identifies the
// version in listings.

// fileExt is the rule-file suffix LoadDir scans for.
const fileExt = ".rules"

// parseEntryName splits "<name>@v<version>" out of a path relative to
// the load root.
func parseEntryName(rel string) (name string, version int, err error) {
	base := strings.TrimSuffix(rel, fileExt)
	at := strings.LastIndex(base, "@v")
	if at < 1 {
		return "", 0, fmt.Errorf("rules: file %q is not <name>@v<version>%s", rel, fileExt)
	}
	version, err = strconv.Atoi(base[at+2:])
	if err != nil || version < 1 {
		return "", 0, fmt.Errorf("rules: file %q has invalid version", rel)
	}
	return filepath.ToSlash(base[:at]), version, nil
}

// LoadDir loads every *.rules file under dir into the registry, each
// under the version its name gives, and activates the highest loaded
// version of each name. It is the only way a version enters a registry,
// so a restarted manager's active rule set is whatever the directory
// holds. A missing dir is an empty registry, not an error. Returns the
// loaded refs.
func (r *Registry) LoadDir(dir string) ([]Ref, error) {
	var loaded []Ref
	highest := make(map[string]int)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == dir {
				return filepath.SkipAll
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, fileExt) {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		name, version, err := parseEntryName(rel)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		e, err := r.putVersion(name, version, string(src))
		if err != nil {
			return err
		}
		loaded = append(loaded, Ref{Name: e.Name, Version: e.Version, Hash: e.Hash, Rules: e.Base.Len()})
		if version > highest[name] {
			highest[name] = version
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rules: load %s: %w", dir, err)
	}
	for name, v := range highest {
		if err := r.activate(name, v); err != nil {
			return nil, err
		}
	}
	for i := range loaded {
		loaded[i].Active = highest[loaded[i].Name] == loaded[i].Version
	}
	sort.Slice(loaded, func(i, j int) bool {
		if loaded[i].Name != loaded[j].Name {
			return loaded[i].Name < loaded[j].Name
		}
		return loaded[i].Version < loaded[j].Version
	})
	return loaded, nil
}
