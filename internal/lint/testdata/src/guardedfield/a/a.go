// Package a exercises the guardedfield analyzer: a field annotated
// "guarded by <mu>" may only be touched while the named sibling mutex is
// held, with the Locked-suffix, caller-contract and constructor escape
// hatches.
package a

import "sync"

type counter struct {
	mu sync.Mutex
	n  int            // guarded by mu
	m  map[string]int // guarded by mu

	free int // unannotated: never reported
}

func (c *counter) goodDefer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) goodExplicit() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) badRead() int {
	return c.n // want "guarded by mu but accessed without it held"
}

func (c *counter) badAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want "guarded by mu but accessed without it held"
}

// badBranch holds the mutex on only one path, so the merged state after
// the if does not hold it.
func (c *counter) badBranch(cond bool) {
	if cond {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.n++ // want "guarded by mu but accessed without it held"
}

// badGo spawns a goroutine: the body runs outside the launcher's critical
// section even though the launcher holds the lock.
func (c *counter) badGo() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "guarded by mu but accessed without it held"
	}()
}

func (c *counter) goodGo() {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}()
}

// bumpLocked is exempt by the *Locked naming contract.
func (c *counter) bumpLocked() {
	c.n++
	c.m["hits"]++
}

// bumpContract is exempt by doc contract. Callers hold c.mu.
func (c *counter) bumpContract() {
	c.n++
}

// newCounter is the constructor pattern: the value cannot be shared yet.
func newCounter() *counter {
	c := &counter{m: map[string]int{}}
	c.n = 1
	return c
}

func (c *counter) suppressed() int {
	//lint:ignore guardedfield racy read is fine here, stats are advisory
	return c.n
}

func (c *counter) unguarded() int {
	return c.free
}

type gauge struct {
	mu sync.RWMutex
	v  int64 // guarded by mu
	// Another package could touch an exported guarded field unchecked.
	Peak int64 // guarded by mu // want "Peak is guarded by mu but exported"
}

func (g *gauge) goodRLock() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v
}

func (g *gauge) badWrite(v int64) {
	g.v = v // want "guarded by mu but accessed without it held"
}

// link has two mutexes, the shape of fleet's shard link: holding amu
// says nothing about the field mu guards.
type link struct {
	mu    sync.Mutex
	addr  string // guarded by mu
	amu   sync.Mutex
	admin string // guarded by amu
}

func (l *link) roundTrip() string {
	l.amu.Lock()
	defer l.amu.Unlock()
	addr := l.addr // want "guarded by mu but accessed without it held"
	if l.admin != addr {
		l.admin = addr
	}
	return addr
}

var _ = newCounter
