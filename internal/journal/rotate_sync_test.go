package journal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoglobe/internal/journal"
	"autoglobe/internal/tsdb"
)

// minuteSizes returns the size of every minute-tier segment of a store
// directory.
func minuteSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "min-") {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()] = info.Size()
		}
	}
	return sizes
}

// TestSealBurstSyncsEverySegment runs a synced tsdb store through a
// seal burst that takes several writes and crosses a segment rotation:
// every commit fsyncs every minute-tier segment it wrote — once for the
// commit, plus once for each segment a rotation closed during it — so
// no chunk is acknowledged from a segment left unsynced. A NoSync store
// makes no fsync at all.
func TestSealBurstSyncsEverySegment(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoSync=%v", noSync), func(t *testing.T) {
			synced := make(map[string]int) // minute-tier segment → fsyncs in the commit
			journal.SetFsync(t, func(f *os.File) error {
				if name := filepath.Base(f.Name()); strings.HasPrefix(name, "min-") {
					synced[name]++
				}
				return f.Sync()
			})
			dir := t.TempDir()
			st, err := tsdb.Open(dir, tsdb.Options{SegmentBytes: 400 << 10, NoSync: noSync})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const ents = 400 // three chunks of seals a burst
			handles := make([]tsdb.Handle, ents)
			burstRotations := 0
			for m := 0; m < tsdb.BlockSamples; m++ {
				before := minuteSizes(t, dir)
				clear(synced)
				for e := range handles {
					if err := st.AppendTo(&handles[e], fmt.Sprintf("svc/app-%d", e), tsdb.Sample{Minute: m, CPU: 0.5}); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Commit(); err != nil {
					t.Fatal(err)
				}
				after := minuteSizes(t, dir)
				fsyncs, rotations := 0, 0
				for name, size := range after {
					if _, ok := before[name]; !ok && len(before)+rotations > 0 {
						rotations++ // a segment was active when this one started
					}
					if size != before[name] && synced[name] == 0 && !noSync {
						t.Fatalf("minute %d: %s was written and never fsynced", m, name)
					}
				}
				for _, n := range synced {
					fsyncs += n
				}
				switch {
				case noSync && fsyncs != 0:
					t.Fatalf("minute %d: %d fsyncs under NoSync", m, fsyncs)
				case !noSync && fsyncs != 1+rotations:
					t.Fatalf("minute %d: %d fsyncs for a commit that rotated %d segments out, want %d",
						m, fsyncs, rotations, 1+rotations)
				}
				if m == tsdb.BlockSamples-1 {
					burstRotations = rotations
				}
			}
			if burstRotations == 0 {
				t.Fatal("the seal burst crossed no segment rotation")
			}
		})
	}
}
