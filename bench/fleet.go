package main

import (
	"fmt"
	"math/rand"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
)

// landscape is a generated fleet: the deployment the program administers
// plus what the load generator needs to know about each cell.
type landscape struct {
	dep *service.Deployment
	// shift is each cell's profile phase shift in minutes (positive =
	// later in the day), indexed by cell.
	shift []int
	// cellOf maps a service name to its cell index.
	cellOf map[string]int
}

// fleet tiles the paper's 19-host / 12-service full-mobility installation
// (Figure 11, Tables 4 and 6) cells times. Host, service and subsystem
// names get a "cNNN-" prefix so every cell keeps its own request path
// (application server → central instance → database), while placement is
// fleet-wide: nothing confines a service to its cell's hosts, so server
// selection scores the whole fleet. Each cell's diurnal profiles are
// phase-shifted by −60…+59 minutes, which staggers the cells' peaks. The
// shifts are an even spread over that range dealt to the cells in seeded
// order: which cell peaks when is the only thing the seed changes in the
// landscape, so every seed puts the same aggregate load on the fleet and
// runs with different seeds stay comparable.
func fleet(cells int, multiplier float64, seed uint64) (*landscape, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	paperHosts := cluster.Paper().Hosts()
	paperSvcs := service.PaperCatalog(service.FullMobility).All()
	alloc := service.PaperInitialAllocation()
	users := service.PaperUsers()

	hosts := make([]cluster.Host, 0, cells*len(paperHosts))
	svcs := make([]*service.Service, 0, cells*len(paperSvcs))
	ls := &landscape{shift: make([]int, cells), cellOf: make(map[string]int, cells*len(paperSvcs))}
	for i, c := range rng.Perm(cells) {
		ls.shift[c] = 120*i/cells - 60
	}
	for c := 0; c < cells; c++ {
		prefix := fmt.Sprintf("c%03d-", c)
		for _, h := range paperHosts {
			h.Name = prefix + h.Name
			hosts = append(hosts, h)
		}
		for _, s := range paperSvcs {
			cp := *s // Allowed is shared: the catalog never mutates it
			cp.Name = prefix + s.Name
			cp.Subsystem = prefix + s.Subsystem
			svcs = append(svcs, &cp)
			ls.cellOf[cp.Name] = c
		}
	}
	cl, err := cluster.New(hosts...)
	if err != nil {
		return nil, err
	}
	cat, err := service.NewCatalog(svcs...)
	if err != nil {
		return nil, err
	}
	dep := service.NewDeployment(cl, cat)
	// The initial allocation of Figure 11, per cell, users split by host
	// performance exactly as service.BuildPaperDeployment does.
	for c := 0; c < cells; c++ {
		prefix := fmt.Sprintf("c%03d-", c)
		for _, s := range paperSvcs {
			var totalPI float64
			for _, hn := range alloc[s.Name] {
				h, _ := cl.Host(prefix + hn)
				totalPI += h.PerformanceIndex
			}
			for _, hn := range alloc[s.Name] {
				inst, err := dep.Start(prefix+s.Name, prefix+hn)
				if err != nil {
					return nil, fmt.Errorf("fleet: initial allocation: %w", err)
				}
				h, _ := cl.Host(prefix + hn)
				inst.Users = users[s.Name] * multiplier * h.PerformanceIndex / totalPI
			}
		}
	}
	if err := dep.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: initial allocation invalid: %w", err)
	}
	ls.dep = dep
	return ls, nil
}
