package a_test

import (
	"testing"

	"loadcycle/a"
)

func TestTwice(t *testing.T) {
	if a.Twice() != 4 {
		t.Fatal("Twice")
	}
}
