package simulator

import (
	"fmt"
	"strings"

	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/spec"
	"autoglobe/internal/workload"
)

// FromLandscape builds a fully configured simulator from a declarative
// landscape description: servers, services and the initial allocation
// come from the declaration; the optional <simulation> section supplies
// workload profiles and tunables; declared <rulebase> sections extend
// the controller's built-in rule bases ("the rules for the fuzzy
// controller can be specified" in the XML language).
func FromLandscape(l *spec.Landscape) (*Simulator, error) {
	return FromLandscapeConfig(l, nil)
}

// FromLandscapeConfig builds a simulator from a declarative landscape
// like FromLandscape, but lets the caller adjust the derived Config
// before the simulator is assembled — e.g. to attach a Distributed
// control plane or wrap the executor. The adjustment runs after every
// declared tunable has been applied.
func FromLandscapeConfig(l *spec.Landscape, adjust func(*Config)) (*Simulator, error) {
	dep, err := l.BuildDeployment()
	if err != nil {
		return nil, err
	}

	sim := l.Simulation
	if sim == nil {
		sim = &spec.Simulation{}
	}
	multiplier := sim.Multiplier
	if multiplier == 0 {
		multiplier = 1
	}
	// The declared populations are the 100 % baseline; the multiplier
	// scales the sessions actually assigned to instances.
	for _, inst := range dep.Instances() {
		inst.Users *= multiplier
	}
	cfg := PaperConfig(l.Mobility(), multiplier)
	if sim.Hours > 0 {
		cfg.Hours = sim.Hours
	}
	cfg.Seed = sim.Seed
	if sim.FluctuationPerHour > 0 {
		cfg.FluctuationPerHour = sim.FluctuationPerHour
	}
	if sim.LoginAffinity > 0 {
		cfg.LoginAffinity = sim.LoginAffinity
	}
	if sim.JitterAmplitude > 0 {
		cfg.JitterAmplitude = sim.JitterAmplitude
	}
	if sim.OverloadThreshold > 0 {
		cfg.Monitor.OverloadThreshold = sim.OverloadThreshold
	}
	if sim.OverloadWatchMinutes > 0 {
		cfg.Monitor.OverloadWatch = sim.OverloadWatchMinutes
	}
	if sim.MemOverloadThreshold > 0 {
		cfg.Monitor.MemOverloadThreshold = sim.MemOverloadThreshold
	}
	if sim.IdleThresholdBase > 0 {
		cfg.Monitor.IdleThresholdBase = sim.IdleThresholdBase
	}
	if sim.IdleWatchMinutes > 0 {
		cfg.Monitor.IdleWatch = sim.IdleWatchMinutes
	}
	if sim.ProtectionMinutes != 0 {
		cfg.Controller.ProtectionMinutes = sim.ProtectionMinutes
	}
	if sim.ForecastHorizon > 0 {
		cfg.ForecastHorizon = sim.ForecastHorizon
	}
	if sim.DBShare > 0 {
		cfg.Cost.DBShare = sim.DBShare
	}
	if sim.CIShare > 0 {
		cfg.Cost.CIShare = sim.CIShare
	}
	cfg.FailuresPerDay = sim.FailuresPerDay

	if err := applyDeclaredRules(&cfg, l); err != nil {
		return nil, err
	}
	if adjust != nil {
		adjust(&cfg)
	}

	gen, err := generatorFromSpec(l, sim, multiplier, cfg.Seed, cfg.JitterAmplitude)
	if err != nil {
		return nil, err
	}
	return NewCustom(cfg, dep, gen)
}

// generatorFromSpec builds the workload generator from declared
// profiles; services without a profile get a flat zero curve (their
// load is purely derived, like databases and central instances).
func generatorFromSpec(l *spec.Landscape, sim *spec.Simulation, multiplier float64, seed uint64, jitterAmp float64) (*workload.Generator, error) {
	profiles := make(map[string]*workload.Profile, len(sim.Profiles))
	for _, p := range sim.Profiles {
		prof, err := p.BuildProfile()
		if err != nil {
			return nil, err
		}
		profiles[p.Service] = prof
	}
	var sources []workload.Source
	for _, svc := range l.Services {
		switch service.Type(svc.Type) {
		case service.TypeInteractive, service.TypeBatch:
		default:
			continue
		}
		prof, ok := profiles[svc.Name]
		if !ok {
			if svc.Users > 0 {
				return nil, fmt.Errorf("simulator: service %q has users but no declared profile", svc.Name)
			}
			prof = workload.Flat(0)
		}
		sources = append(sources, workload.Source{
			Service: svc.Name,
			Users:   svc.Users * multiplier,
			Profile: prof,
		})
	}
	return workload.NewGenerator(workload.Jitter{Seed: seed, Amplitude: jitterAmp}, sources...)
}

// applyDeclaredRules merges <rulebase> sections into the controller
// configuration: trigger names extend the default action-selection
// bases, "serverSelection:<action>" extends the selection base for that
// action, and a service attribute scopes the base to one service.
func applyDeclaredRules(cfg *Config, l *spec.Landscape) error {
	parsed, err := l.ParsedRuleBases()
	if err != nil {
		return err
	}
	if len(parsed) == 0 {
		return nil
	}
	actionDefaults := controller.DefaultActionRules()
	selectionDefaults := controller.DefaultSelectionRules()
	for key, rules := range parsed {
		trigger, svcName, scoped := strings.Cut(key, "/")
		switch {
		case strings.HasPrefix(trigger, "serverSelection:"):
			if scoped {
				return fmt.Errorf("simulator: server-selection rule base %q cannot be service-specific", key)
			}
			action := service.Action(strings.TrimPrefix(trigger, "serverSelection:"))
			base, ok := selectionDefaults[action]
			if !ok {
				return fmt.Errorf("simulator: rule base for unknown selection action %q", action)
			}
			ext, err := base.Extend(key, rules)
			if err != nil {
				return err
			}
			if cfg.Controller.SelectionRules == nil {
				cfg.Controller.SelectionRules = selectionDefaults
			}
			cfg.Controller.SelectionRules[action] = ext
		default:
			kind := monitor.TriggerKind(trigger)
			base, ok := actionDefaults[kind]
			if !ok {
				return fmt.Errorf("simulator: rule base for unknown trigger %q", trigger)
			}
			ext, err := base.Extend(key, rules)
			if err != nil {
				return err
			}
			if scoped {
				if cfg.Controller.ServiceRules == nil {
					cfg.Controller.ServiceRules = make(map[string]map[monitor.TriggerKind]*fuzzy.RuleBase)
				}
				if cfg.Controller.ServiceRules[svcName] == nil {
					cfg.Controller.ServiceRules[svcName] = make(map[monitor.TriggerKind]*fuzzy.RuleBase)
				}
				cfg.Controller.ServiceRules[svcName][kind] = ext
			} else {
				if cfg.Controller.ActionRules == nil {
					cfg.Controller.ActionRules = actionDefaults
				}
				cfg.Controller.ActionRules[kind] = ext
			}
		}
	}
	return nil
}
