// Package d imports c, which imports d.
package d

import "loadcycle/c"

// D calls into c.
func D() int { return c.C() }
