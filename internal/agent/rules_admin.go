package agent

import (
	"fmt"

	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/rules"
	"autoglobe/internal/service"
)

// Administrative rule-base plumbing shared by the daemons and the
// simulator: loading a versioned rule directory into a live controller
// and building a shadow overlay from a candidate directory. Rule bases
// change only through these loads: no wire message swaps them and no
// journal records them, so a restarted daemon runs what its directory
// holds.

// LoadRuleDir loads every versioned rule file under dir into reg and
// hot-swaps the active (highest) version of each base into ctl.
// Validation happens in the registry before any swap; a base no
// controller slot answers to is an error. Returns the loaded refs.
func LoadRuleDir(reg *rules.Registry, ctl *controller.Controller, dir string) ([]rules.Ref, error) {
	refs, err := reg.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ref := range refs {
		if !ref.Active {
			continue
		}
		e, ok := reg.Active(ref.Name)
		if !ok {
			continue
		}
		if err := ctl.SwapRuleBase(e.Name, e.Base); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// ShadowOverlayDir loads a candidate rule directory and routes its
// active bases into the overlay maps controller.Shadow takes — the same
// by-name routing a live swap uses, but without touching the active
// rule set.
func ShadowOverlayDir(dir string) (map[monitor.TriggerKind]*fuzzy.RuleBase, map[service.Action]*fuzzy.RuleBase, error) {
	reg := rules.New(controller.RuleVocabulary)
	refs, err := reg.LoadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	action := make(map[monitor.TriggerKind]*fuzzy.RuleBase)
	selection := make(map[service.Action]*fuzzy.RuleBase)
	for _, ref := range refs {
		if !ref.Active {
			continue
		}
		e, ok := reg.Active(ref.Name)
		if !ok {
			continue
		}
		if kind, ok := controller.TriggerForRuleBase(e.Name); ok {
			action[kind] = e.Base
			continue
		}
		acts := controller.ActionsForRuleBase(e.Name)
		if acts == nil {
			return nil, nil, fmt.Errorf("shadow rule base %q has no swap point", e.Name)
		}
		for _, a := range acts {
			selection[a] = e.Base
		}
	}
	return action, selection, nil
}
