package fuzzy

import "testing"

func BenchmarkParseRule(b *testing.B) {
	src := `IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable`
	for i := 0; i < b.N; i++ {
		if _, err := ParseRule(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFuzzify(b *testing.B) {
	v := StandardLoad("cpuLoad")
	for i := 0; i < b.N; i++ {
		v.Fuzzify(0.63)
	}
}

func BenchmarkInferTwoRules(b *testing.B) {
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(Applicability("scaleUp"))
	vc.Add(Applicability("scaleOut"))
	rb := MustRuleBase("b", vc, MustParse(`
		IF cpuLoad IS high THEN scaleUp IS applicable
		IF cpuLoad IS medium THEN scaleOut IS applicable
	`))
	e := NewEngine(nil)
	vec := []float64{0.8} // cpuLoad, the base's one input slot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.InferVec(rb, vec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferTwoRulesReleased measures the steady-state compiled
// path: callers that Release results run allocation-free.
func BenchmarkInferTwoRulesReleased(b *testing.B) {
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(Applicability("scaleUp"))
	vc.Add(Applicability("scaleOut"))
	rb := MustRuleBase("b", vc, MustParse(`
		IF cpuLoad IS high THEN scaleUp IS applicable
		IF cpuLoad IS medium THEN scaleOut IS applicable
	`))
	rb.Compile() // warm the program outside the timed loop
	e := NewEngine(nil)
	vec := []float64{0.8} // cpuLoad
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.InferVec(rb, vec)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkInferParallel measures compiled inference throughput when a
// shared rule base is hammered from all cores — the controller fan-out
// pattern of the parallel sweep engine.
func BenchmarkInferParallel(b *testing.B) {
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(Applicability("scaleUp"))
	vc.Add(Applicability("scaleOut"))
	rb := MustRuleBase("b", vc, MustParse(`
		IF cpuLoad IS high THEN scaleUp IS applicable
		IF cpuLoad IS medium THEN scaleOut IS applicable
	`))
	e := NewEngine(nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		vec := []float64{0.8} // cpuLoad
		for pb.Next() {
			res, err := e.InferVec(rb, vec)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
	})
}

func BenchmarkDefuzzifyLeftMax(b *testing.B) {
	s := NewSet(0, 1)
	s.UnionClipped(Trapezoid(0, 1, 1, 1), 0.7)
	d := LeftMax{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Defuzzify(s)
	}
}
