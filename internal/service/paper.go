package service

import (
	"fmt"

	"autoglobe/internal/cluster"
)

// Mobility selects which of the paper's three simulation scenarios a
// catalog is built for. The scenarios differ only in the actions services
// support and in how users are redistributed after controller actions
// (Section 5.1).
type Mobility int

const (
	// Static is the baseline: all services are static, the standard
	// environment of most computing centers at the time of the paper.
	Static Mobility = iota
	// ConstrainedMobility (Table 5): application servers support
	// scale-in and scale-out; databases and central instances stay
	// static; users are NOT redistributed after a scale-out and only
	// drift to new instances through natural fluctuation.
	ConstrainedMobility
	// FullMobility (Table 6): the BW database can be distributed
	// (scale-in/out); central instances and application servers can be
	// moved (and app servers scaled up/down/in/out); users are equally
	// redistributed across all instances after actions.
	FullMobility
)

// String names the scenario as in the paper.
func (m Mobility) String() string {
	switch m {
	case Static:
		return "static"
	case ConstrainedMobility:
		return "constrained mobility"
	case FullMobility:
		return "full mobility"
	}
	return "unknown"
}

func actions(as ...Action) map[Action]bool {
	m := make(map[Action]bool, len(as))
	for _, a := range as {
		m[a] = true
	}
	return m
}

// AppServerNames lists the paper's application servers.
func AppServerNames() []string { return []string{"FI", "LES", "PP", "HR", "CRM", "BW"} }

// PaperCatalog builds the service catalog of the paper's simulated SAP
// installation for the given scenario: six application servers (FI, LES,
// PP, HR, CRM interactive; BW batch), three central instances and three
// databases (one per subsystem ERP, CRM, BW), with the constraints of
// Tables 5 and 6.
func PaperCatalog(m Mobility) *Catalog {
	var appActions, ciActions, dbBWActions map[Action]bool
	switch m {
	case Static:
		// No service supports any action.
	case ConstrainedMobility:
		appActions = actions(ActionScaleIn, ActionScaleOut)
	case FullMobility:
		appActions = actions(ActionScaleIn, ActionScaleOut, ActionScaleUp, ActionScaleDown, ActionMove)
		ciActions = actions(ActionScaleUp, ActionScaleDown, ActionMove)
		dbBWActions = actions(ActionScaleIn, ActionScaleOut)
	}

	app := func(name, subsystem string, typ Type, min int, weight float64, allowed map[Action]bool) *Service {
		perUnit := 150 // "at most 150 users of one service" per PI-1 blade
		if typ == TypeBatch {
			// BW is driven by batch jobs, each roughly ten times as heavy
			// as an interactive user session: a PI-1 blade sustains 15
			// concurrently running jobs.
			perUnit = 15
		}
		return &Service{
			Name:                name,
			Type:                typ,
			Subsystem:           subsystem,
			MinInstances:        min,
			MaxInstances:        0, // bounded by one instance per host
			Allowed:             allowed,
			MemoryMBPerInstance: 1024,
			BaseLoad:            0.05,
			UsersPerUnit:        perUnit,
			RequestWeight:       weight,
		}
	}
	ci := func(subsystem string) *Service {
		return &Service{
			Name:                "CI-" + subsystem,
			Type:                TypeCentralInstance,
			Subsystem:           subsystem,
			MinInstances:        1,
			MaxInstances:        1, // the CI is the singleton lock manager
			Allowed:             ciActions,
			MemoryMBPerInstance: 1024,
			BaseLoad:            0.03,
			UsersPerUnit:        150,
			RequestWeight:       1,
		}
	}
	db := func(subsystem string, exclusive bool, maxInst int, allowed map[Action]bool) *Service {
		return &Service{
			Name:                "DB-" + subsystem,
			Type:                TypeDatabase,
			Subsystem:           subsystem,
			MinInstances:        1,
			MaxInstances:        maxInst,
			Exclusive:           exclusive,
			MinPerfIndex:        5,
			Allowed:             allowed,
			MemoryMBPerInstance: 6144,
			BaseLoad:            0.02,
			UsersPerUnit:        150,
			RequestWeight:       1,
		}
	}

	dbBWMax := 1
	if m == FullMobility {
		dbBWMax = 3 // "the BW database can be distributed across several servers"
	}
	return MustCatalog(
		// Application servers. FI and LES must keep at least 2 instances
		// (Tables 5 and 6); request weights reflect that "an FI request
		// produces lower load than a BW request" — BW batch jobs hammer
		// their database, interactive requests less so.
		app("FI", "ERP", TypeInteractive, 2, 0.8, appActions),
		app("LES", "ERP", TypeInteractive, 2, 1.0, appActions),
		app("PP", "ERP", TypeInteractive, 1, 1.0, appActions),
		app("HR", "ERP", TypeInteractive, 1, 0.9, appActions),
		app("CRM", "CRM", TypeInteractive, 1, 1.1, appActions),
		app("BW", "BW", TypeBatch, 1, 8.0, appActions),
		ci("ERP"), ci("CRM"), ci("BW"),
		db("ERP", true, 1, nil),
		db("CRM", false, 1, nil),
		db("BW", false, dbBWMax, dbBWActions),
	)
}

// PaperInitialAllocation returns the initial static service-to-server
// allocation of Figure 11, mapping service names to host names. Every
// simulation run of the paper starts from this allocation.
func PaperInitialAllocation() map[string][]string {
	return map[string][]string{
		"LES":    {"Blade1", "Blade2", "Blade12", "Blade13"},
		"FI":     {"Blade3", "Blade5", "Blade11"},
		"PP":     {"Blade4", "Blade14"},
		"HR":     {"Blade10"},
		"CRM":    {"Blade15"},
		"BW":     {"Blade9", "Blade16"},
		"CI-ERP": {"Blade6"},
		"CI-CRM": {"Blade7"},
		"CI-BW":  {"Blade8"},
		"DB-ERP": {"DBServer1"},
		"DB-CRM": {"DBServer2"},
		"DB-BW":  {"DBServer3"},
	}
}

// PaperUsers returns the baseline number of users per application
// service from Table 4 (for the batch-driven BW, the value is its job
// count; its load is scaled per job rather than per user).
func PaperUsers() map[string]float64 {
	return map[string]float64{
		"FI":  600,
		"LES": 900,
		"PP":  450,
		"HR":  300,
		"CRM": 300,
		"BW":  60,
	}
}

// BuildPaperDeployment builds a deployment with the paper's initial
// allocation (Figure 11) on the given cluster, distributing each
// service's baseline users (Table 4, scaled by multiplier) across its
// instances proportionally to host performance — the hardware is "scaled
// for peak load", so the initial allocation exactly matches capacities.
func BuildPaperDeployment(cl *cluster.Cluster, m Mobility, multiplier float64) (*Deployment, error) {
	cat := PaperCatalog(m)
	d := NewDeployment(cl, cat)
	alloc := PaperInitialAllocation()
	users := PaperUsers()
	// Deterministic order: services as declared in the catalog.
	for _, svcName := range cat.Names() {
		hosts, ok := alloc[svcName]
		if !ok {
			return nil, fmt.Errorf("service: no initial allocation for %q", svcName)
		}
		var totalPI float64
		for _, hn := range hosts {
			h, ok := cl.Host(hn)
			if !ok {
				return nil, fmt.Errorf("service: initial allocation references unknown host %q", hn)
			}
			totalPI += h.PerformanceIndex
		}
		for _, hn := range hosts {
			inst, err := d.Start(svcName, hn)
			if err != nil {
				return nil, fmt.Errorf("service: initial allocation: %w", err)
			}
			if u, ok := users[svcName]; ok {
				h, _ := cl.Host(hn)
				inst.Users = u * multiplier * h.PerformanceIndex / totalPI
			}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("service: initial allocation invalid: %w", err)
	}
	return d, nil
}

// TilePaper tiles the paper's 19-host / 12-service full-mobility
// installation cells times under cNNN- name prefixes, with every cell's
// initial allocation (Figure 11) started and no users assigned: 53 cells
// are the 1,007 hosts, 636 services and 1,643 instances of the
// fleet-steady benchmark workload. It panics only if the paper's own
// landscape is inconsistent.
func TilePaper(cells int) *Deployment {
	paperHosts := cluster.Paper().Hosts()
	paperSvcs := PaperCatalog(FullMobility).All()
	var hosts []cluster.Host
	var svcs []*Service
	for c := 0; c < cells; c++ {
		prefix := fmt.Sprintf("c%03d-", c)
		for _, h := range paperHosts {
			h.Name = prefix + h.Name
			hosts = append(hosts, h)
		}
		for _, s := range paperSvcs {
			cp := *s // Allowed is shared: the catalog never mutates it
			cp.Name, cp.Subsystem = prefix+s.Name, prefix+s.Subsystem
			svcs = append(svcs, &cp)
		}
	}
	d := NewDeployment(cluster.MustNew(hosts...), MustCatalog(svcs...))
	alloc := PaperInitialAllocation()
	for c := 0; c < cells; c++ {
		prefix := fmt.Sprintf("c%03d-", c)
		for _, s := range paperSvcs {
			for _, h := range alloc[s.Name] {
				if _, err := d.Start(prefix+s.Name, prefix+h); err != nil {
					panic(fmt.Sprintf("service: tiling the paper landscape: %v", err))
				}
			}
		}
	}
	return d
}
