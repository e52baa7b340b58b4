package controller

import (
	"slices"

	"autoglobe/internal/placement"
	"autoglobe/internal/service"
)

// Methods only the package's external tests (package controller_test)
// call: this file is compiled into the package's test build alone.

// IndexCandidates names, sorted, the hosts the placement index offers
// the action of the instance at the minute.
func (c *Controller) IndexCandidates(a service.Action, svcName, instID string, minute int) []string {
	return refNames(c.candidateRefs(nil, a, svcName, instID, minute, nil))
}

// ScanCandidates names, sorted, the hosts the full-scan reference offers
// the action of the instance at the minute.
func (c *Controller) ScanCandidates(a service.Action, svcName, instID string, minute int) []string {
	return refNames(c.scanCandidates(a, svcName, instID, minute, nil))
}

func refNames(refs []*placement.HostRef) []string {
	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = r.Host.Name
	}
	slices.Sort(names)
	return names
}
