// Package user is the production caller of package lib.
package user

import "fixture/internal/lib"

// Use reaches each production-used name of lib.
func Use() []any {
	var s lib.Shape = lib.Square{Side: 2}
	var err error = lib.Fault{}
	p := lib.Pair{1, 2}
	p.A++ // ++ reads A
	o := lib.Opts{Set: 1}
	o.Set += p.A // += reads Set
	o.Unread = 2 // a plain = does not read Unread
	return []any{s.Area(), err, lib.ModeA, lib.Wire{}, &p.B, o}
}
