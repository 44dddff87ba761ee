// Package regression is the seeded-mutation proof for lockflow: the
// exact PR-2 Engine.Submit race, reintroduced two calls deep. Submit
// takes the mutex for its own bookkeeping, releases it, and only then
// walks into a helper chain that mutates the DES heap — the helper's
// "caller holds mu" comment is what a per-method check would have to
// trust, so it would report NOTHING in this package. The lockflow test
// asserts lockflow finds exactly 1, naming the
// Submit -> schedule -> enqueue path.
package regression

import (
	"sync"

	"dcnr/internal/des"
)

type Engine struct {
	mu      sync.Mutex
	sim     *des.Simulator
	pending int
}

func (e *Engine) Submit(at float64) {
	e.mu.Lock()
	e.pending++
	e.mu.Unlock()
	e.schedule(at) // the lock is already gone here
}

func (e *Engine) schedule(at float64) {
	e.enqueue(at)
}

func (e *Engine) enqueue(at float64) {
	e.sim.Schedule(at, nil) // caller holds mu
}
