package forecast

import (
	"fmt"
	"math"
)

// Functions and methods only this package's tests call.

// Error reports the mean absolute error of one-step-ahead predictions
// over a window, for evaluating forecast quality.
func (p *Predictor) Error(entity string, from, to int) (mae float64, n int, err error) {
	w, err := p.arch.Window(entity, from, to)
	if err != nil {
		return 0, 0, err
	}
	if len(w) < 2 {
		return 0, 0, fmt.Errorf("forecast: too few samples for %q in [%d, %d]", entity, from, to)
	}
	var sum float64
	for i := 1; i < len(w); i++ {
		pred, _, ok := p.Predict(entity, w[i-1].Minute, w[i].Minute-w[i-1].Minute)
		if !ok {
			continue
		}
		sum += math.Abs(pred - w[i].CPU)
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("forecast: no history for %q", entity)
	}
	return sum / float64(n), n, nil
}
