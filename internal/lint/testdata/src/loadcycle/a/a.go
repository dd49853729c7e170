// Package a is imported by b's tests, and its own tests import b.
package a

// A is what b's tests call.
func A() int { return 1 }
