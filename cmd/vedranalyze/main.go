// Command vedranalyze runs Vedrfolnir's analyzer offline over a diagnosis
// bundle (step records + telemetry reports + collective-flow census in the
// wire JSON format), as produced by `vedrsim -dump`.
//
// Usage:
//
//	vedranalyze -in bundle.json [-json]
//
// With -json the diagnosis is emitted as machine-readable JSON; otherwise a
// human-readable summary prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

func main() {
	in := flag.String("in", "", "input bundle (JSON; - for stdin)")
	asJSON := flag.Bool("json", false, "emit the diagnosis as JSON")
	tracePath := flag.String("trace", "", "write a Chrome trace of the analyzer phases")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "vedranalyze: -in required")
		os.Exit(2)
	}
	var data []byte
	var err error
	if *in == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyze:", err)
		os.Exit(1)
	}
	bundle, err := wire.DecodeBundle(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyze:", err)
		os.Exit(1)
	}
	var scope *obs.Scope
	if *tracePath != "" {
		scope = &obs.Scope{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
		scope.Trace.NameProcess(obs.PidAnalyzer, "analyzer")
		scope.Trace.NameThread(obs.PidAnalyzer, 0, "phases")
	}
	diag := bundle.AnalyzeObs(scope)
	if *tracePath != "" {
		if err := scope.Trace.WriteFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vedranalyze: trace written to %s (%d events)\n", *tracePath, scope.Trace.Len())
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(wire.FromDiagnosis(diag)); err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyze:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("inputs: %d step records, %d reports, %d collective flows\n",
		len(bundle.Records), len(bundle.Reports), len(bundle.CFs))
	fmt.Print(diag.Summary())
}
