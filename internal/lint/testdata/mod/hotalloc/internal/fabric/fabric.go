// Package fabric exercises hotalloc's scheduled-closure check: a function
// literal that captures a variable and is handed to sim.Kernel.At/After
// is one heap closure per event.
package fabric

import "hotalloc/internal/sim"

type port struct {
	k      *sim.Kernel
	busy   bool
	txDone func()
}

var landed int

// perEvent builds a closure over the receiver and a local on every call.
func (p *port) perEvent(delay int64) {
	p.k.After(delay, func() { p.busy = false }) // want "passed to sim.Kernel.After captures p: one heap closure per scheduled event"
	n := 3
	p.k.At(delay, func() { landed += n }) // want "passed to sim.Kernel.At captures n"
}

// bound is the blessed shape: the callback is built once and the func
// value is what gets scheduled.
func newPort(k *sim.Kernel) *port {
	p := &port{k: k}
	p.txDone = func() { p.busy = false }
	return p
}

func (p *port) bound(delay int64) {
	p.k.After(delay, p.txDone)
}

// nonCapturing literals are static functions, not allocations: package
// state, their own parameters and locals are not captures.
func (p *port) nonCapturing(delay int64) {
	p.k.After(delay, func() {
		step := 1
		landed += step
	})
	p.k.At(delay, nil)
}

// cold sites say why they may allocate.
func (p *port) cold(delay int64) {
	//lint:ignore hotalloc once per injected fault, not per packet
	p.k.At(delay, func() { p.busy = true })
}

type scheduler struct{}

func (scheduler) After(d int64, fn func()) {}

// otherReceiver: only the kernel's methods are the event loop.
func otherReceiver(s scheduler, x int) {
	s.After(1, func() { landed += x })
}
