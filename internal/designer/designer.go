// Package designer implements the landscape designer the paper plans as
// future work (Section 7: "we plan to develop a landscape designer tool.
// This tool calculates a statically optimized pre-assignment of all
// services to improve the dynamic optimization potential of the fuzzy
// controller"), following the static-allocation optimization of the
// companion paper [9].
//
// The designer solves a constrained load-balancing placement: given the
// expected peak demand of each service (in performance-index units per
// instance) it assigns instances to hosts so that the projected relative
// load of the most loaded host is minimized, honouring the declarative
// constraints (exclusivity, minimum performance index, memory, one
// instance of a service per host). The algorithm is longest-processing-
// time-first greedy — provably within 4/3 of the optimum for plain
// makespan and easily good enough to seed the runtime controller.
package designer

import (
	"fmt"
	"sort"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
)

// Demand describes one service's expected load for the designer.
type Demand struct {
	// Service is the service name (must exist in the catalog).
	Service string
	// Instances is how many instances to place.
	Instances int
	// UnitsPerInstance is the expected peak CPU demand of one instance
	// in performance-index units.
	UnitsPerInstance float64
}

// Plan is the designer's result.
type Plan struct {
	// Assignments maps each service to the hosts chosen for its
	// instances, in placement order.
	Assignments map[string][]string
	// Makespan is the highest projected relative load.
	Makespan float64
}

// Design computes a statically optimized pre-assignment.
func Design(cl *cluster.Cluster, cat *service.Catalog, demands []Demand) (*Plan, error) {
	type pending struct {
		svc   *service.Service
		units float64
	}
	var work []pending
	for _, d := range demands {
		svc, ok := cat.Get(d.Service)
		if !ok {
			return nil, fmt.Errorf("designer: unknown service %q", d.Service)
		}
		if d.Instances <= 0 {
			return nil, fmt.Errorf("designer: service %q: %d instances", d.Service, d.Instances)
		}
		if d.UnitsPerInstance < 0 {
			return nil, fmt.Errorf("designer: service %q: negative demand", d.Service)
		}
		for i := 0; i < d.Instances; i++ {
			work = append(work, pending{svc: svc, units: d.UnitsPerInstance + svc.BaseLoad})
		}
	}
	// LPT: place the heaviest instances first; exclusive services first
	// among equals so they can still claim an empty host.
	sort.SliceStable(work, func(i, j int) bool {
		if work[i].svc.Exclusive != work[j].svc.Exclusive {
			return work[i].svc.Exclusive
		}
		if work[i].units != work[j].units {
			return work[i].units > work[j].units
		}
		return work[i].svc.Name < work[j].svc.Name
	})

	load := make(map[string]float64)
	memUsed := make(map[string]int)
	hasService := make(map[string]map[string]bool) // host -> services
	exclusiveHost := make(map[string]bool)
	plan := &Plan{Assignments: make(map[string][]string)}

	for _, w := range work {
		bestHost := ""
		bestLoad := 0.0
		for _, h := range cl.Hosts() {
			if !w.svc.CanRunOn(h) {
				continue
			}
			if exclusiveHost[h.Name] {
				continue
			}
			if w.svc.Exclusive && len(hasService[h.Name]) > 0 {
				continue
			}
			if hasService[h.Name][w.svc.Name] {
				continue
			}
			if memUsed[h.Name]+w.svc.MemoryMBPerInstance > h.MemoryMB {
				continue
			}
			projected := load[h.Name] + w.units/h.PerformanceIndex
			if bestHost == "" || projected < bestLoad ||
				(projected == bestLoad && h.Name < bestHost) {
				bestHost, bestLoad = h.Name, projected
			}
		}
		if bestHost == "" {
			return nil, fmt.Errorf("designer: no feasible host for service %q", w.svc.Name)
		}
		load[bestHost] = bestLoad
		memUsed[bestHost] += w.svc.MemoryMBPerInstance
		if hasService[bestHost] == nil {
			hasService[bestHost] = make(map[string]bool)
		}
		hasService[bestHost][w.svc.Name] = true
		if w.svc.Exclusive {
			exclusiveHost[bestHost] = true
		}
		plan.Assignments[w.svc.Name] = append(plan.Assignments[w.svc.Name], bestHost)
	}
	for _, v := range load {
		if v > plan.Makespan {
			plan.Makespan = v
		}
	}
	return plan, nil
}

// Apply starts the planned instances on a fresh deployment.
func (p *Plan) Apply(dep *service.Deployment) error {
	services := make([]string, 0, len(p.Assignments))
	for svc := range p.Assignments {
		services = append(services, svc)
	}
	sort.Strings(services)
	for _, svc := range services {
		for _, host := range p.Assignments[svc] {
			if _, err := dep.Start(svc, host); err != nil {
				return fmt.Errorf("designer: apply: %w", err)
			}
		}
	}
	return nil
}

// String renders the plan.
func (p *Plan) String() string {
	services := make([]string, 0, len(p.Assignments))
	for svc := range p.Assignments {
		services = append(services, svc)
	}
	sort.Strings(services)
	s := fmt.Sprintf("landscape plan (projected peak load %.0f%%):\n", p.Makespan*100)
	for _, svc := range services {
		s += fmt.Sprintf("  %-8s → %v\n", svc, p.Assignments[svc])
	}
	return s
}
