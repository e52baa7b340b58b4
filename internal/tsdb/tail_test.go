package tsdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"autoglobe/internal/journal"
)

// TestTailServesHotReads drives one entity at every commit cadence that
// lines up differently with the 64-sample block, on a disk store and a
// memory store. After every append and every commit, Latest and a
// 20-minute window must come from the tail — the open block and the
// newest sealed one — with no disk read, right after a seal, when the
// open block is empty, included. A reopened disk store must rebuild the
// tail, also when its last batch was torn between its row and its seal,
// and a closed store must still answer from it.
func TestTailServesHotReads(t *testing.T) {
	const minutes = 5 * BlockSamples // the last commit's batch ends on a seal
	for _, cadence := range []int{1, 63, 64, 65, 130} {
		for _, disk := range []bool{true, false} {
			t.Run(fmt.Sprintf("%d/disk=%v", cadence, disk), func(t *testing.T) {
				dir := ""
				if disk {
					dir = t.TempDir()
				}
				st, err := Open(dir, Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				var want []Sample
				emptyOpen := 0
				hot := func(label string, st *Store, h Handle, want []Sample) {
					t.Helper()
					last := want[len(want)-1]
					if s, ok := st.Latest(h); !ok || s != last {
						t.Fatalf("%s: Latest = %+v, %v; want %+v", label, s, ok, last)
					}
					var got []Sample
					read, err := st.Range(h, last.Minute-19, last.Minute+1, func(s Sample) { got = append(got, s) })
					if err != nil || read || !slices.Equal(got, want[max(0, len(want)-20):]) {
						t.Fatalf("%s: a 20-minute window: %d samples, disk read %v, err %v", label, len(got), read, err)
					}
					if h.e.n == 0 {
						emptyOpen++
					}
				}
				var h Handle
				for m := 0; m < minutes; m++ {
					cpu, mem := load(0, m)
					s := Sample{Minute: m, CPU: cpu, Mem: mem}
					if err := st.AppendTo(&h, "svc/a", s); err != nil {
						t.Fatal(err)
					}
					want = append(want, s)
					hot(fmt.Sprintf("minute %d appended", m), st, h, want)
					if m%cadence == cadence-1 {
						if err := st.Commit(); err != nil {
							t.Fatal(err)
						}
						hot(fmt.Sprintf("minute %d committed", m), st, h, want)
					}
				}
				if err := st.Commit(); err != nil {
					t.Fatal(err)
				}
				hot("last commit", st, h, want)
				if emptyOpen == 0 {
					t.Fatal("no read came right after a seal: the case lost its teeth")
				}
				// Below the tail only the disk store reads the disk.
				if read, err := st.Range(h, 0, minutes, func(Sample) {}); err != nil || read != disk {
					t.Fatalf("a read of everything: disk read %v, err %v", read, err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				hot("closed", st, h, want)
				if read, err := st.Range(h, 0, minutes, func(Sample) {}); read != disk || disk != errors.Is(err, ErrClosed) {
					t.Fatalf("closed: a read of everything: disk read %v, err %v", read, err)
				}
				if !disk {
					return
				}

				re := openStore(t, dir, Options{})
				hot("reopened", re, re.Lookup("svc/a"), want)
				re.Close()
				// The last batch was [row][seal]: cut the seal, and its block
				// reopens full and unsealed, the newest sealed block behind it.
				seg := filepath.Join(dir, "min-00000000.seg")
				img, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				payloads, ends := journal.Frames(img)
				if n := len(payloads); n < 2 || payloads[n-1][0] != kBlock || payloads[n-2][0] != kRow {
					t.Fatalf("the last batch is not a row and a seal: %d frames", n)
				}
				truncateFile(t, seg, ends[len(ends)-2])
				torn := openStore(t, dir, Options{})
				th := torn.Lookup("svc/a")
				if th.e.n != BlockSamples || len(torn.full) != 1 {
					t.Fatalf("torn: %d samples open, %d blocks awaiting their seal", th.e.n, len(torn.full))
				}
				hot("torn", torn, th, want)
				if err := torn.Commit(); err != nil {
					t.Fatal(err)
				}
				hot("torn, then sealed", torn, th, want)
			})
		}
	}
}
