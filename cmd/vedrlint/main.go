// Command vedrlint runs the repository's determinism and diagnosis
// invariant analyzers (internal/lint) over the module, multichecker-style.
// Run it alongside go vet:
//
//	go vet ./... && go run ./cmd/vedrlint ./...
//
// It prints one line per finding (file:line:col: message (analyzer)) and
// exits 1 on any finding or stale //lint:ignore comment (one suppressing
// nothing), so dead justifications cannot accumulate. Suppress a finding
// with a justified comment on or above the offending line:
//
//	//lint:ignore nosystime measuring real host overhead, not simulated time
//
// Flags:
//
//	-list   print the analyzer suite and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"vedrfolnir/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedrlint:", err)
		os.Exit(2)
	}
	rep, err := lint.RunTree(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedrlint:", err)
		os.Exit(2)
	}
	for _, d := range rep.Diags {
		fmt.Println(d)
	}
	for _, d := range rep.StaleIgnores {
		fmt.Println(d)
	}
	if len(rep.Diags)+len(rep.StaleIgnores) > 0 {
		fmt.Fprintf(os.Stderr, "vedrlint: %d invariant violation(s), %d stale suppression(s)\n",
			len(rep.Diags), len(rep.StaleIgnores))
		os.Exit(1)
	}
}
