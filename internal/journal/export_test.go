package journal

import (
	"os"
	"testing"
)

// SetFsync routes every segment fsync through fn until the test ends.
func SetFsync(t testing.TB, fn func(*os.File) error) {
	old := fsync
	fsync = fn
	t.Cleanup(func() { fsync = old })
}
