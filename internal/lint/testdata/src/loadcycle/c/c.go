// Package c and package d import each other: a real cycle.
package c

import "loadcycle/d"

// C calls into d.
func C() int { return d.D() }
