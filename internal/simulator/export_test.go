package simulator

import (
	"fmt"
	"sort"
	"strings"
)

// Functions and methods only this package's tests call.

// Landscape renders the current allocation canonically: one line per
// pooled host (sorted), listing the services of its instances (sorted).
// Instance IDs, users and priorities are deliberately omitted — two
// runs that place the same services on the same hosts have converged to
// the same landscape even if they took different trigger timings (and
// therefore different instance IDs) to get there, which is the
// equivalence the chaos convergence test asserts.
func (s *Simulator) Landscape() string {
	hosts := append([]string(nil), s.dep.Cluster().Names()...)
	sort.Strings(hosts)
	var b strings.Builder
	for _, h := range hosts {
		insts := s.dep.InstancesOn(h)
		names := make([]string, 0, len(insts))
		for _, inst := range insts {
			names = append(names, inst.Service)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s: %s\n", h, strings.Join(names, " "))
	}
	return b.String()
}

// StartMinute returns the first minute Run will simulate: 0 for a
// fresh archive, the minute after the restored high-water mark for a
// reopened one.
func (s *Simulator) StartMinute() int { return s.mgr.Start }
