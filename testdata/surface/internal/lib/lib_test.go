package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fail()
	}
}
