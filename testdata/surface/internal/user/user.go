// Package user is the production caller of package lib.
package user

import "fixture/internal/lib"

// Use reaches each production-used name of lib.
func Use() []any {
	var s lib.Shape = lib.Square{Side: 2}
	var err error = lib.Fault{}
	return []any{s.Area(), err, lib.ModeA, lib.Wire{}, lib.Pair{1, 2}, lib.Opts{Set: 1}}
}
