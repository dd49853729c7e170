package a

import (
	"testing"

	"loadcycle/b"
)

// Twice is in-package test code that the external test package reads.
func Twice() int { return 2 * b.B() }

func TestA(t *testing.T) {
	if A() != 1 {
		t.Fatal("A")
	}
}
