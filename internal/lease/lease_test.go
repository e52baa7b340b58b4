package lease

import "testing"

func TestTrackerExpiry(t *testing.T) {
	tr := NewTracker(2)
	if tr.TTL() != 2 {
		t.Fatalf("TTL = %d, want 2", tr.TTL())
	}
	// Never renewed: measures from minute 0.
	if tr.Expired(1) {
		t.Fatal("expired 1 minute after start with TTL 2")
	}
	if !tr.Expired(2) {
		t.Fatal("not expired 2 minutes after start with TTL 2")
	}
	tr.Renew(5)
	if tr.Expired(6) {
		t.Fatal("expired 1 minute after renewal")
	}
	if !tr.Expired(7) {
		t.Fatal("not expired TTL minutes after renewal")
	}

}

func TestTrackerRenewalsMonotone(t *testing.T) {
	tr := NewTracker(2)
	tr.Renew(10)
	tr.Renew(8) // late-delivered older beacon: the clock stays
	if tr.Expired(11) {
		t.Fatal("stale renewal moved the clock backwards")
	}
	if !tr.Expired(12) {
		t.Fatal("not expired TTL minutes after the newest renewal")
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker(3)
	tr.Renew(4)
	tr.Reset(20)
	if tr.Expired(22) {
		t.Fatal("expired before a full TTL after reset")
	}
	if !tr.Expired(23) {
		t.Fatal("not expired TTL minutes after reset")
	}
}

func TestTrackerDefaultTTL(t *testing.T) {
	if got := NewTracker(0).TTL(); got != DefaultTTL {
		t.Fatalf("TTL = %d, want default %d", got, DefaultTTL)
	}
}
