package service

import "sort"

// Functions and methods only this package's tests call.

// ByType returns the services of the given type, sorted by name.
func (c *Catalog) ByType(t Type) []*Service {
	var out []*Service
	for _, s := range c.services {
		if s.Type == t {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
