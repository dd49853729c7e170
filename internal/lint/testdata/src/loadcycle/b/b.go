// Package b imports nothing; its tests import a.
package b

// B is what a's tests call.
func B() int { return 2 }
