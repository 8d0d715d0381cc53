package lockbalance

import "sync"

// Interprocedural cases: lock and unlock operations hidden behind helper
// calls. lockflow summarises each helper's net effect and lockbalance
// folds it in at the call site, so the pairs below balance (or leak)
// exactly as if the mutex calls were inlined.

type box struct {
	mu   sync.RWMutex
	vals map[string]int
}

// Lock wrappers: net +1 write / +1 read / -1 write / -1 read on b.mu.
// The acquiring wrappers are themselves lock handoffs, so each carries
// the justification lockbalance demands of any function that returns
// holding a lock.

func (b *box) lockSection() {
	//lint:allow lockbalance -- lock wrapper: callers release via unlockSection
	b.mu.Lock()
}

func (b *box) unlockSection() { b.mu.Unlock() }

func (b *box) rlockSection() {
	//lint:allow lockbalance -- lock wrapper: callers release via runlockSection
	b.mu.RLock()
}

func (b *box) runlockSection() { b.mu.RUnlock() }

// helperBalanced: acquire and release both go through helpers.
func (b *box) helperBalanced(k string) int {
	b.lockSection()
	defer b.unlockSection()
	return b.vals[k]
}

// helperLeak: the helper-acquired lock never reaches a release on the
// early-return path; the finding lands on the helper call.
func (b *box) helperLeak(k string) (int, bool) {
	b.lockSection() // want `b\.mu\.Lock\(\) can reach a return with the lock still held`
	v, ok := b.vals[k]
	if !ok {
		return 0, false
	}
	b.unlockSection()
	return v, true
}

// mixedBalanced: a direct acquire released through a helper, inline on
// each branch.
func (b *box) mixedBalanced(k string) (int, bool) {
	b.mu.RLock()
	if v, ok := b.vals[k]; ok {
		b.runlockSection()
		return v, true
	}
	b.runlockSection()
	return 0, false
}

// mixedLeak: helper-read-acquired, one branch forgets the release.
func (b *box) mixedLeak(k string) (int, bool) {
	b.rlockSection() // want `b\.mu\.RLock\(\) can reach a return with the lock still held`
	if v, ok := b.vals[k]; ok {
		b.mu.RUnlock()
		return v, true
	}
	return 0, false
}

// selfBalancedHelper nets to zero (lock + deferred unlock), so callers
// owe nothing.
func (b *box) selfBalancedHelper(k string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.vals[k]
}

func (b *box) callsSelfBalanced(k string) int {
	return b.selfBalancedHelper(k) + 1
}

// Chained wrappers: a helper calling a helper still summarises.

func (b *box) lockChained() {
	//lint:allow lockbalance -- lock wrapper: callers release via unlockSection
	b.lockSection()
}

func (b *box) chainedLeak(k string) int {
	b.lockChained() // want `b\.mu\.Lock\(\) can reach a return with the lock still held`
	return b.vals[k]
}

func (b *box) chainedBalanced(k string) int {
	b.lockChained()
	defer b.unlockSection()
	return b.vals[k]
}

// Parameter-rooted keys: the helper locks whatever mutex it is handed,
// and the caller's argument text names the lock.

func lockMu(mu *sync.Mutex) {
	//lint:allow lockbalance -- lock wrapper: callers release via unlockMu
	mu.Lock()
}

func unlockMu(mu *sync.Mutex) { mu.Unlock() }

type pair struct {
	left  sync.Mutex
	right sync.Mutex
}

func (p *pair) paramBalanced() {
	lockMu(&p.left)
	lockMu(&p.right)
	unlockMu(&p.right)
	unlockMu(&p.left)
}

func (p *pair) paramLeak() {
	lockMu(&p.left) // want `p\.left\.Lock\(\) can reach a return with the lock still held`
	lockMu(&p.right)
	unlockMu(&p.right)
}

// conditionalHelper's net effect depends on the branch, so it has no
// summary; its calls are lock-neutral and the caller's spurious-looking
// unlock of an unheld mutex is not a finding (may-held analysis).
func (b *box) conditionalHelper(lock bool) {
	if lock {
		b.mu.Lock() // want `b\.mu\.Lock\(\) can reach a return with the lock still held`
	}
}

func (b *box) callsConditional(k string) int {
	b.conditionalHelper(len(k) > 0)
	return b.vals[k]
}

// recursiveHelper can never summarise (cycle); calls stay neutral.
func (b *box) recursiveHelper(n int) {
	if n > 0 {
		b.recursiveHelper(n - 1)
	}
}

func (b *box) callsRecursive(k string) int {
	b.recursiveHelper(3)
	return b.vals[k]
}

// deferredHelperRelease: a deferred unlock helper releases like a
// deferred Unlock — every downstream exit is balanced.
func (b *box) deferredHelperRelease(k string) (int, bool) {
	b.lockSection()
	defer b.unlockSection()
	if v, ok := b.vals[k]; ok {
		return v, true
	}
	return 0, false
}

// handoffHelper intentionally transfers lock ownership to the caller; the
// suppression belongs at the helper call in each caller that leaks it.
func (b *box) acquireForCaller() {
	//lint:allow lockbalance -- lock handoff: documented acquire-side of the pair
	b.mu.Lock()
}

func (b *box) usesHandoff(k string) int {
	//lint:allow lockbalance -- released by the paired releaseForCaller
	b.acquireForCaller()
	return b.vals[k]
}

// Locks held by a generic type's methods are balanced per path like any
// other.
type genBox[T any] struct {
	mu   sync.Mutex
	vals []T
}

func (g *genBox[T]) firstLeak() (T, bool) {
	var zero T
	g.mu.Lock() // want `g\.mu\.Lock\(\) can reach a return with the lock still held`
	if len(g.vals) == 0 {
		return zero, false
	}
	v := g.vals[0]
	g.mu.Unlock()
	return v, true
}

func (g *genBox[T]) firstDeferred() (T, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var zero T
	if len(g.vals) == 0 {
		return zero, false
	}
	return g.vals[0], true
}
