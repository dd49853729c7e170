package b

import (
	"testing"

	"loadcycle/a"
)

func TestB(t *testing.T) {
	if a.A()+B() != 3 {
		t.Fatal("B")
	}
}
