// Package service models the application services AutoGlobe administers
// and their allocation to hosts: service descriptions with the
// declarative constraints of the paper (minimum/maximum instances,
// exclusivity, minimum performance index, supported actions), running
// instances, and a Deployment that tracks and validates the
// service-to-server allocation.
//
// Services are virtualized — decoupled from servers — so an instance can
// be started on, stopped on, or moved between any hosts that satisfy the
// service's constraints. The Deployment is the in-process equivalent of
// ServiceGlobe's service-IP binding: it knows, at any time, which
// instance runs where, and refuses transitions that would violate a
// declared constraint.
package service

import (
	"fmt"

	"autoglobe/internal/cluster"
)

// Action enumerates the controller actions of the paper's Table 2.
type Action string

// The actions of Table 2. Scale-out/in change the number of instances of
// a service; scale-up/down/move relocate an instance to a more powerful,
// less powerful, or equivalently powerful host; start/stop create or
// remove the service as a whole; the priority actions adjust scheduling
// priority in place.
const (
	ActionStart            Action = "start"
	ActionStop             Action = "stop"
	ActionScaleIn          Action = "scaleIn"
	ActionScaleOut         Action = "scaleOut"
	ActionScaleUp          Action = "scaleUp"
	ActionScaleDown        Action = "scaleDown"
	ActionMove             Action = "move"
	ActionIncreasePriority Action = "increasePriority"
	ActionReducePriority   Action = "reducePriority"
)

// Actions lists all actions in the order of Table 2.
func Actions() []Action {
	return []Action{
		ActionStart, ActionStop, ActionScaleIn, ActionScaleOut,
		ActionScaleUp, ActionScaleDown, ActionMove,
		ActionIncreasePriority, ActionReducePriority,
	}
}

// NeedsTarget reports whether executing the action requires selecting a
// target host (Section 4.2: scale-out, scale-up, scale-down, move, start).
func (a Action) NeedsTarget() bool {
	switch a {
	case ActionScaleOut, ActionScaleUp, ActionScaleDown, ActionMove, ActionStart:
		return true
	}
	return false
}

// Valid reports whether a is one of the defined actions.
func (a Action) Valid() bool {
	switch a {
	case ActionStart, ActionStop, ActionScaleIn, ActionScaleOut,
		ActionScaleUp, ActionScaleDown, ActionMove,
		ActionIncreasePriority, ActionReducePriority:
		return true
	}
	return false
}

// Type classifies a service by its role in the SAP-style landscape.
type Type string

// Service types of the paper's simulation environment. Interactive
// application servers process user requests; batch services (BW) run
// heavy jobs; databases and central instances (global lock managers) are
// the per-subsystem singletons.
const (
	TypeInteractive     Type = "interactive"
	TypeBatch           Type = "batch"
	TypeDatabase        Type = "database"
	TypeCentralInstance Type = "centralInstance"
)

// Valid reports whether t is one of the defined types.
func (t Type) Valid() bool {
	switch t {
	case TypeInteractive, TypeBatch, TypeDatabase, TypeCentralInstance:
		return true
	}
	return false
}

// Service describes one administered service and its declarative
// capabilities and constraints, as expressed in the paper's XML language.
type Service struct {
	// Name uniquely identifies the service (e.g. "FI", "DB-ERP").
	Name string
	// Type is the service's role.
	Type Type
	// Subsystem names the SAP subsystem the service belongs to
	// (ERP, CRM or BW in the paper's installation).
	Subsystem string

	// MinInstances and MaxInstances bound the number of concurrently
	// running instances. MaxInstances 0 means unbounded.
	MinInstances int
	MaxInstances int
	// Exclusive states that no other service may run on a host executing
	// this service (Table 5: the ERP database).
	Exclusive bool
	// MinPerfIndex is the minimum performance index of hosts that may
	// run the service (Tables 5 and 6: databases require at least 5).
	MinPerfIndex float64
	// Allowed is the set of controller actions the service supports. A
	// nil or empty set means the service is static: no dynamic actions
	// at all ("a traditional SAP database service does not support a
	// scale-out").
	Allowed map[Action]bool

	// MemoryMBPerInstance is the main-memory footprint of one instance.
	MemoryMBPerInstance int
	// BaseLoad is the CPU load one idle instance induces on a
	// performance-index-1 host ("every application server itself induces
	// a basic load").
	BaseLoad float64
	// UsersPerUnit is how many users of this service one
	// performance-index-1 host handles at full capacity (150 in the
	// paper for a standard blade). For batch services it is the number
	// of concurrently running jobs a standard blade sustains.
	UsersPerUnit int
	// RequestWeight scales the load a request of this service induces
	// downstream ("an FI request produces lower load than a BW
	// request"): it multiplies the demand mirrored onto the subsystem's
	// database and central instance. The application-server load itself
	// is normalized by UsersPerUnit.
	RequestWeight float64
}

// Supports reports whether the service declares the action as possible.
func (s *Service) Supports(a Action) bool { return s.Allowed[a] }

// Validate checks the service description.
func (s *Service) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("service: empty name")
	case !s.Type.Valid():
		return fmt.Errorf("service %q: invalid type %q", s.Name, s.Type)
	case s.MinInstances < 0:
		return fmt.Errorf("service %q: negative min instances", s.Name)
	case s.MaxInstances < 0:
		return fmt.Errorf("service %q: negative max instances", s.Name)
	case s.MaxInstances > 0 && s.MinInstances > s.MaxInstances:
		return fmt.Errorf("service %q: min instances %d > max instances %d",
			s.Name, s.MinInstances, s.MaxInstances)
	case s.MinPerfIndex < 0:
		return fmt.Errorf("service %q: negative minimum performance index", s.Name)
	case s.BaseLoad < 0 || s.BaseLoad > 1:
		return fmt.Errorf("service %q: base load %g outside [0,1]", s.Name, s.BaseLoad)
	case s.MemoryMBPerInstance < 0:
		return fmt.Errorf("service %q: negative memory per instance", s.Name)
	}
	for a := range s.Allowed {
		if !a.Valid() {
			return fmt.Errorf("service %q: unknown action %q", s.Name, a)
		}
	}
	return nil
}

// CanRunOn reports whether the service's static constraints allow it on
// the host (minimum performance index only; exclusivity depends on the
// current allocation and is checked by the Deployment).
func (s *Service) CanRunOn(h cluster.Host) bool {
	return h.PerformanceIndex >= s.MinPerfIndex
}

// Catalog is a lookup table of service descriptions.
type Catalog struct {
	services map[string]*Service
	order    []string
}

// NewCatalog builds a catalog, validating every service.
func NewCatalog(services ...*Service) (*Catalog, error) {
	c := &Catalog{services: make(map[string]*Service)}
	for _, s := range services {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.services[s.Name]; dup {
			return nil, fmt.Errorf("service: duplicate %q", s.Name)
		}
		c.services[s.Name] = s
		c.order = append(c.order, s.Name)
	}
	return c, nil
}

// MustCatalog is NewCatalog panicking on error.
func MustCatalog(services ...*Service) *Catalog {
	c, err := NewCatalog(services...)
	if err != nil {
		panic(err)
	}
	return c
}

// Get returns the named service.
func (c *Catalog) Get(name string) (*Service, bool) {
	s, ok := c.services[name]
	return s, ok
}

// Names returns all service names in insertion order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// All returns all services in insertion order.
func (c *Catalog) All() []*Service {
	out := make([]*Service, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.services[n])
	}
	return out
}

// Len returns the number of services.
func (c *Catalog) Len() int { return len(c.services) }
