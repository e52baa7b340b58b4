package archive

import "autoglobe/internal/tsdb"

// Functions and methods only this package's tests call.

// Len is Entity(entity).Len().
func (a *Archive) Len(entity string) int { return a.Entity(entity).Len() }

// Store exposes the archive's tsdb store — a memory store for an
// in-memory archive — for tiered reads and stats beyond the Archive API.
func (a *Archive) Store() *tsdb.Store { return a.store }
