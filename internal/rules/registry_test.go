package rules

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"autoglobe/internal/fuzzy"
)

// testVocab accepts action-ish names with a tiny vocabulary and
// "select/"-prefixed names with a score vocabulary.
func testVocab(name string) *fuzzy.Vocabulary {
	if name == "rejected" {
		return nil
	}
	v := fuzzy.NewVocabulary()
	v.Add(fuzzy.StandardLoad("cpuLoad"))
	if strings.HasPrefix(name, "select/") {
		v.Add(fuzzy.Applicability("score"))
	} else {
		v.Add(fuzzy.Applicability("scaleOut"))
	}
	return v
}

const goodSrc = "IF cpuLoad IS high THEN scaleOut IS applicable\n"
const goodSrc2 = "IF cpuLoad IS medium THEN scaleOut IS applicable\n"
const goodSelSrc = "IF cpuLoad IS low THEN score IS applicable\n"

func TestPutVersionsAndHash(t *testing.T) {
	r := New(testVocab)
	e1, err := r.Put("serviceOverloaded", goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e1.Hash != Hash(goodSrc) || e1.Base == nil {
		t.Fatalf("entry = %+v", e1)
	}
	// Identical source is idempotent.
	again, err := r.Put("serviceOverloaded", goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != 1 {
		t.Fatalf("idempotent put created version %d", again.Version)
	}
	// New source bumps the version.
	e2, err := r.Put("serviceOverloaded", goodSrc2)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != 2 {
		t.Fatalf("second put version = %d, want 2", e2.Version)
	}
	// A stored base names its rules under its version.
	if id := e2.Base.ID(0); id != (fuzzy.RuleID{Base: "serviceOverloaded", Version: 2, Index: 0}) || e1.Base.Version != 1 {
		t.Fatalf("rule id %+v, first base version %d", id, e1.Base.Version)
	}
}

func TestPutRejectsBadSource(t *testing.T) {
	r := New(testVocab)
	cases := map[string]string{
		"parse error":      "IF broken",
		"unknown variable": "IF nosuchvar IS high THEN scaleOut IS applicable",
		"unknown term":     "IF cpuLoad IS enormous THEN scaleOut IS applicable",
		"empty":            "# nothing here\n",
	}
	for what, src := range cases {
		if _, err := r.Put("serviceOverloaded", src); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if _, err := r.Put("rejected", goodSrc); err == nil {
		t.Error("name with no vocabulary accepted")
	}
	if _, err := r.Put("bad name", goodSrc); err == nil {
		t.Error("name with whitespace accepted")
	}
	if len(r.List()) != 0 {
		t.Errorf("rejected pushes left entries behind: %v", r.List())
	}
}

func TestActivateAndGet(t *testing.T) {
	r := New(testVocab)
	if _, ok := r.Active("serviceOverloaded"); ok {
		t.Fatal("empty registry has an active version")
	}
	e1, _ := r.Put("serviceOverloaded", goodSrc)
	e2, _ := r.Put("serviceOverloaded", goodSrc2)
	// Put does not activate.
	if _, ok := r.Active("serviceOverloaded"); ok {
		t.Fatal("put activated implicitly")
	}
	if _, err := r.Activate("serviceOverloaded", 99); err == nil {
		t.Fatal("activated a version that was never put")
	}
	if _, err := r.Activate("serviceOverloaded", e2.Version); err != nil {
		t.Fatal(err)
	}
	a, ok := r.Active("serviceOverloaded")
	if !ok || a.Version != e2.Version {
		t.Fatalf("active = %+v", a)
	}
	// Get by explicit version still reaches the older one.
	old, ok := r.Get("serviceOverloaded", e1.Version)
	if !ok || old.Hash != Hash(goodSrc) {
		t.Fatalf("old version lookup = %+v, %v", old, ok)
	}
	// Rollback: activating the older version again.
	if _, err := r.Activate("serviceOverloaded", e1.Version); err != nil {
		t.Fatal(err)
	}
	if a, _ := r.Active("serviceOverloaded"); a.Version != e1.Version {
		t.Fatalf("rollback failed: active = %+v", a)
	}
}

func TestPutVersionReplay(t *testing.T) {
	r := New(testVocab)
	if e, err := r.PutVersion("serviceOverloaded", 3, goodSrc); err != nil || e.Base.Version != 3 {
		t.Fatalf("replayed entry %+v, %v: want its base at version 3", e, err)
	}
	// Same version, same hash: idempotent.
	if _, err := r.PutVersion("serviceOverloaded", 3, goodSrc); err != nil {
		t.Fatal(err)
	}
	// Same version, different content: corruption.
	if _, err := r.PutVersion("serviceOverloaded", 3, goodSrc2); err == nil {
		t.Fatal("conflicting replay accepted")
	}
	// Out-of-order inserts keep versions sorted.
	if _, err := r.PutVersion("serviceOverloaded", 1, goodSrc2); err != nil {
		t.Fatal(err)
	}
	refs := r.List()
	if len(refs) != 2 || refs[0].Version != 1 || refs[1].Version != 3 {
		t.Fatalf("List = %+v", refs)
	}
	// A later Put lands after the highest replayed version.
	e, err := r.Put("serviceOverloaded", goodSrc+goodSrc2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 4 {
		t.Fatalf("put after replay version = %d, want 4", e.Version)
	}
}

func TestListAndActiveRefs(t *testing.T) {
	r := New(testVocab)
	r.Put("serviceOverloaded", goodSrc)
	r.Put("select/placement", goodSelSrc)
	r.Activate("select/placement", 1)
	refs := r.List()
	if len(refs) != 2 {
		t.Fatalf("List = %+v", refs)
	}
	if refs[0].Name != "select/placement" || !refs[0].Active || refs[0].Rules != 1 {
		t.Fatalf("refs[0] = %+v", refs[0])
	}
	if refs[1].Name != "serviceOverloaded" || refs[1].Active {
		t.Fatalf("refs[1] = %+v", refs[1])
	}
}

func TestDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := New(testVocab)
	e1, _ := r.Put("serviceOverloaded", goodSrc)
	e2, _ := r.Put("serviceOverloaded", goodSrc2)
	sel, _ := r.Put("select/placement", goodSelSrc)
	for _, e := range []*Entry{e1, e2, sel} {
		path := filepath.Join(dir, filepath.FromSlash(e.Name)+"@v"+strconv.Itoa(e.Version)+fileExt)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(e.Source), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The selection base landed in a subdirectory.
	if _, err := os.Stat(filepath.Join(dir, "select", "placement@v1.rules")); err != nil {
		t.Fatal(err)
	}

	r2 := New(testVocab)
	loaded, err := r2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d entries, want 3: %+v", len(loaded), loaded)
	}
	// Highest version of each name is active after a plain load.
	a, ok := r2.Active("serviceOverloaded")
	if !ok || a.Version != 2 || a.Hash != e2.Hash {
		t.Fatalf("active after load = %+v", a)
	}
	if a, ok := r2.Active("select/placement"); !ok || a.Version != 1 {
		t.Fatalf("selection active after load = %+v", a)
	}
	// Sources survived byte-identically.
	got, _ := r2.Get("serviceOverloaded", 1)
	if got.Source != goodSrc {
		t.Fatalf("source round trip changed: %q", got.Source)
	}
	// The returned refs carry the activation outcome — callers route
	// active bases into swap points off these refs alone.
	for _, ref := range loaded {
		wantActive := ref.Name == "select/placement" || ref.Version == 2
		if ref.Active != wantActive {
			t.Errorf("loaded ref %s@v%d Active=%v, want %v", ref.Name, ref.Version, ref.Active, wantActive)
		}
	}
}

func TestLoadDirMissingAndBad(t *testing.T) {
	r := New(testVocab)
	loaded, err := r.LoadDir(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || len(loaded) != 0 {
		t.Fatalf("missing dir: loaded=%v err=%v", loaded, err)
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "noversion.rules"), []byte(goodSrc), 0o644)
	if _, err := New(testVocab).LoadDir(dir); err == nil {
		t.Fatal("file without @v<version> accepted")
	}
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "serviceOverloaded@v1.rules"), []byte("IF broken"), 0o644)
	if _, err := New(testVocab).LoadDir(dir2); err == nil {
		t.Fatal("unparseable rule file accepted")
	}
}

func TestValidateDoesNotStore(t *testing.T) {
	r := New(testVocab)
	if _, err := r.Validate("serviceOverloaded", goodSrc); err != nil {
		t.Fatal(err)
	}
	if len(r.List()) != 0 {
		t.Fatal("Validate stored an entry")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New(testVocab)
	r.Put("serviceOverloaded", goodSrc)
	r.Activate("serviceOverloaded", 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Put("serviceOverloaded", goodSrc2)
			r.Activate("serviceOverloaded", 2)
			r.Activate("serviceOverloaded", 1)
		}
	}()
	for i := 0; i < 200; i++ {
		if _, ok := r.Active("serviceOverloaded"); !ok {
			t.Error("active version vanished")
		}
		r.List()
	}
	<-done
}
