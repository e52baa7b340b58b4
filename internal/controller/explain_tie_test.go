package controller

import (
	"testing"

	"autoglobe/internal/fuzzy"
)

// TestExplainTiesFollowTextOrder: rules that fire with equal truth are
// listed in the order of their text, not of their index in the rule
// base. Here index order and text order disagree: the longer rule comes
// first in the base but sorts after the shorter one it extends.
func TestExplainTiesFollowTextOrder(t *testing.T) {
	rb := fuzzy.MustRuleBase("ties", ActionVocabulary(), fuzzy.MustParse(`
IF cpuLoad IS high THEN scaleUp IS applicable AND scaleOut IS applicable
IF serviceLoad IS high THEN scaleOut IS applicable
IF cpuLoad IS high THEN scaleUp IS applicable
IF cpuLoad IS high THEN move IS applicable
`))
	got := explain(rb, []float64{0.5, 0.7, 0.5, 0.9}, "scaleUp")
	want := []FiredRule{
		{Rule: "IF cpuLoad IS high THEN scaleUp IS applicable", Truth: 0.5},
		{Rule: "IF cpuLoad IS high THEN scaleUp IS applicable AND scaleOut IS applicable", Truth: 0.5},
	}
	if len(got) != len(want) {
		t.Fatalf("explain listed %d rules, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Rule != want[i].Rule || got[i].Truth != want[i].Truth {
			t.Errorf("explanation[%d] = %.2f %q, want %.2f %q", i, got[i].Truth, got[i].Rule, want[i].Truth, want[i].Rule)
		}
	}
	got = explain(rb, []float64{0.5, 0.7, 0.5, 0.9}, "scaleOut")
	if len(got) != 2 || got[0].Truth != 0.7 || got[1].Truth != 0.5 {
		t.Errorf("scaleOut explanation = %+v, want truth 0.7 then 0.5", got)
	}
}
