package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"autoglobe/internal/service"
)

// TestDecisionExplanationsDigest pins every decision explanation of a
// seed-1 full-mobility day at 1.15× users: the SHA-256 of each event's
// Decision.Explain(), in event order, one line each. Any change to
// which rules an explanation lists, their truth, their text or their
// order changes it.
func TestDecisionExplanationsDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("a full simulated day is slow under the race detector")
	}
	const want = "19d1c39e97201efb74afa6fa31b3005992b5f988366ab81a4445b93c283be01b"
	res := run(t, service.FullMobility, 1.15, 24, nil)
	h := sha256.New()
	decisions := 0
	for _, e := range res.Actions {
		if e.Decision == nil {
			continue
		}
		decisions++
		io.WriteString(h, e.Decision.Explain())
		io.WriteString(h, "\n")
	}
	if decisions == 0 {
		t.Fatal("the day recorded no decision")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%d explanations hash to %s, want %s", decisions, got, want)
	}
}
