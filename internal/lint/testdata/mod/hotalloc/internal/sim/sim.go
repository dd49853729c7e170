// Package sim stands in for the simulation kernel: hotalloc recognises
// (*Kernel).At and After of the analysed module's internal/sim.
package sim

// Kernel schedules callbacks.
type Kernel struct{ pending []func() }

// At schedules fn at an absolute time.
func (k *Kernel) At(at int64, fn func()) { k.pending = append(k.pending, fn) }

// After schedules fn after a delay.
func (k *Kernel) After(d int64, fn func()) { k.At(d, fn) }
