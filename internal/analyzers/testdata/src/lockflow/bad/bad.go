// Package bad exercises lockflow: DES heap mutations reachable over
// unlocked call paths that a per-method lexical check cannot see.
package bad

import (
	"sync"

	"dcnr/internal/des"
)

type Engine struct {
	mu  sync.Mutex
	sim *des.Simulator
}

// Submit is an unlocked entry point: the mutation two calls down runs
// with no lock held anywhere on the path.
func (e *Engine) Submit(h float64) {
	e.helperA(h)
}

func (e *Engine) helperA(h float64) {
	e.helperB(h)
}

// helperB claims its callers lock — a per-method check must trust that, but
// lockflow checks the claim against the actual call graph and finds the
// Submit -> helperA -> helperB path holds nothing.
func (e *Engine) helperB(h float64) {
	e.sim.After(h, nil) // caller holds mu
}

// Alias defeats a recv.field.method syntax match entirely:
// the mutation happens through a local copy of the simulator pointer.
func (e *Engine) Alias(h float64) {
	sim := e.sim
	sim.After(h, nil) // type-matched mutation, unlocked
}

// Maybe locks only on one branch; the must-hold join proves the lock is
// not guaranteed at the mutation. A lexical scan is fooled by
// the earlier Lock.
func (e *Engine) Maybe(h float64, lock bool) {
	if lock {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	e.sim.After(h, nil) // unheld on the !lock path
}
