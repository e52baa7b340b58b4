package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"autoglobe/internal/journal"
)

// copyDir clones every segment file of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func truncateFile(t *testing.T, path string, n int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(b) {
		t.Fatalf("truncate %d beyond %d bytes", n, len(b))
	}
	if err := os.WriteFile(path, b[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPointSweepTSDB kills the store at every record boundary of
// its data stream — and one byte before each, mid-frame — and reopens.
// The durability contract at every point: no acked sample is lost (a
// sample is acked when the Commit after it returned and its bytes are
// within the surviving prefix), and recovery is an intact prefix of the
// appended sequence per entity — never a gap, never a reorder, never an
// invented sample. The cuts inside a burst minute — after its row frame
// and after each of its seal frames but the last — leave full blocks
// with no frame behind them: the next commit must seal each exactly
// once, and a second reopen must read the same samples out of one block
// per 64, none twice.
func TestCrashPointSweepTSDB(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 1 << 20}) // one data segment
	const ents, minutes = 3, 130                            // spans two seals per entity
	type ack struct {
		size  int64 // data segment size after the commit
		count int   // samples per entity acked by then
	}
	var acks []ack
	want := make(map[string][]Sample)
	segPath := filepath.Join(dir, "min-00000000.seg")
	for m := 0; m < minutes; m++ {
		for e := 0; e < ents; e++ {
			name := fmt.Sprintf("svc/app-%d", e)
			cpu, mem := load(e, m)
			s := Sample{Minute: m, CPU: cpu, Mem: mem}
			if err := st.Append(name, s); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], s)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack{size: fi.Size(), count: m + 1})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := journal.Frames(img)
	points := []int{0}
	for _, b := range boundaries {
		points = append(points, b-1, b) // mid-frame and clean cut
	}
	orphanCuts := 0
	for _, cut := range points {
		// The largest fully-acked commit within the surviving prefix is
		// the floor recovery must reach.
		floor := 0
		for _, a := range acks {
			if a.size <= int64(cut) {
				floor = a.count
			}
		}
		crashed := copyDir(t, dir)
		truncateFile(t, filepath.Join(crashed, "min-00000000.seg"), cut)
		re, err := Open(crashed, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(re.full) > 0 {
			orphanCuts++
		}
		recovered := make(map[string][]Sample)
		for name, ws := range want {
			got := collect(t, re, name, 0, minutes)
			recovered[name] = got
			if len(got) < floor {
				t.Fatalf("cut %d: %s: recovered %d samples, acked floor %d — acked data lost",
					cut, name, len(got), floor)
			}
			if len(got) > len(ws) {
				t.Fatalf("cut %d: %s: recovered %d samples, only %d ever written",
					cut, name, len(got), len(ws))
			}
			for i := range got {
				if got[i] != ws[i] {
					t.Fatalf("cut %d: %s[%d]: got %+v, want %+v — not an intact prefix",
						cut, name, i, got[i], ws[i])
				}
			}
		}
		// The next commit seals what the cut orphaned; nothing moves.
		if err := re.Commit(); err != nil {
			t.Fatalf("cut %d: commit after reopen: %v", cut, err)
		}
		for pass, st := range []*Store{re, nil} {
			if st == nil {
				if st, err = Open(crashed, Options{NoSync: true}); err != nil {
					t.Fatalf("cut %d: second reopen: %v", cut, err)
				}
			}
			for name, rs := range recovered {
				got := collect(t, st, name, 0, minutes)
				if !slices.Equal(got, rs) {
					t.Fatalf("cut %d pass %d: %s: %d samples after the sealing commit, %d before it",
						cut, pass, name, len(got), len(rs))
				}
				e := st.ents[st.ids[name]]
				if len(e.blocks) != len(rs)/BlockSamples || e.n != len(rs)%BlockSamples {
					t.Fatalf("cut %d pass %d: %s: %d samples in %d blocks + %d open",
						cut, pass, name, len(rs), len(e.blocks), e.n)
				}
			}
			st.Close()
		}
	}
	// Two bursts; in each, the clean cut after the row and both cuts at
	// every seal but the clean one after the last.
	if orphanCuts != 2*(1+2*ents-1) {
		t.Fatalf("only %d cuts fell between a burst's rows and its last seal", orphanCuts)
	}
}

// TestCrashPointSweepDict kills the store inside its very first commit,
// at every boundary of the dictionary stream with no data stream yet:
// recovery yields the surviving prefix of entities, each empty.
func TestCrashPointSweepDict(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	for e := 0; e < 4; e++ {
		if err := st.Append(fmt.Sprintf("svc/app-%d", e), Sample{Minute: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dictPath := filepath.Join(dir, "dict-00000000.seg")
	img, err := os.ReadFile(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := journal.Frames(img)
	for i, b := range boundaries {
		for _, cut := range []int{b - 1, b} {
			crashed := copyDir(t, dir)
			truncateFile(t, filepath.Join(crashed, "dict-00000000.seg"), cut)
			// The dict is written (and with sync, made durable) before
			// the data stream of the same commit; a crash mid-dict means
			// the data write never happened.
			os.Remove(filepath.Join(crashed, "min-00000000.seg"))
			re, err := Open(crashed, Options{NoSync: true})
			if err != nil {
				t.Fatalf("cut %d: reopen: %v", cut, err)
			}
			wantEnts := i
			if cut == b {
				wantEnts = i + 1
			}
			if got := len(re.Entities()); got != wantEnts {
				t.Fatalf("cut %d: recovered %d entities, want %d", cut, got, wantEnts)
			}
			re.Close()
		}
	}
}

// TestCrashPointSweepCompaction kills the store at every boundary of a
// compaction's append batch — aggregates then the watermark commit
// record — with the pre-compaction minute segments still on disk (the
// pruning that follows only runs after the watermark write returns).
// Every cut must reopen into a consistent stitched view: the watermark
// either advanced completely (aggregates authoritative) or not at all
// (orphan aggregates dropped, minute tier authoritative); either way
// the total sample coverage is exact.
func TestCrashPointSweepCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	const minutes = 200
	for m := 0; m < minutes; m++ {
		for e := 0; e < 2; e++ {
			cpu, mem := load(e, m)
			if err := st.Append(fmt.Sprintf("svc/app-%d", e), Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
				t.Fatal(err)
			}
		}
		if m%7 == 6 {
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	preCompaction := copyDir(t, dir)

	// Run the compaction on a clone to obtain the hr stream image.
	compDir := copyDir(t, dir)
	cst, err := Open(compDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cst.CompactBefore(120); err != nil {
		t.Fatal(err)
	}
	if err := cst.Close(); err != nil {
		t.Fatal(err)
	}
	hrName := "hr-00000000.seg"
	img, err := os.ReadFile(filepath.Join(compDir, hrName))
	if err != nil {
		t.Fatal(err)
	}
	_, boundaries := journal.Frames(img)
	points := []int{0}
	for _, b := range boundaries {
		points = append(points, b-1, b)
	}
	lastBoundary := boundaries[len(boundaries)-1]
	for _, cut := range points {
		crashed := copyDir(t, preCompaction)
		if err := os.WriteFile(filepath.Join(crashed, hrName), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(crashed, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		committed := cut == lastBoundary // only the watermark frame commits
		wantWM := 0
		if committed {
			wantWM = 120
		}
		if wm := re.Watermark(TierMinute); wm != wantWM {
			t.Fatalf("cut %d: minute watermark %d, want %d", cut, wm, wantWM)
		}
		for e := 0; e < 2; e++ {
			name := fmt.Sprintf("svc/app-%d", e)
			var buf SeriesBuf
			if err := re.ReadSeries(name, 0, minutes, &buf); err != nil {
				t.Fatal(err)
			}
			if len(buf.Days) != 0 {
				t.Fatalf("cut %d: %s: unexpected day aggregates %+v", cut, name, buf.Days)
			}
			aggN := 0
			var aggSum float64
			for _, a := range buf.Hours {
				aggN += a.N
				aggSum += a.SumCPU
			}
			var rawSum float64
			for _, s := range buf.Minutes {
				rawSum += s.CPU
			}
			if aggN+len(buf.Minutes) != minutes {
				t.Fatalf("cut %d: %s: stitched view covers %d samples, want %d",
					cut, name, aggN+len(buf.Minutes), minutes)
			}
			var wantSum float64
			for m := 0; m < minutes; m++ {
				cpu, _ := load(e, m)
				wantSum += cpu
			}
			// Tolerance, not equality: the stitched sum associates
			// per-window partial sums, the reference adds straight through.
			if got := aggSum + rawSum; got < wantSum-1e-9 || got > wantSum+1e-9 {
				t.Fatalf("cut %d: %s: stitched CPU sum %v, want %v", cut, name, got, wantSum)
			}
		}
		re.Close()
	}
}
