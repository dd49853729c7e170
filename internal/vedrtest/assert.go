package vedrtest

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/spec"
)

// check builds one evaluated assertion.
func check(field, want, got string) Check {
	return Check{Field: field, Want: want, Got: got, OK: want == got}
}

// checkBound builds a bound assertion whose verdict is computed, not
// string-equality (Got keeps the measured value for the diff).
func checkBound(field, want, got string, ok bool) Check {
	return Check{Field: field, Want: want, Got: got, OK: ok}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// caseChecks evaluates the spec's per-case expectations against one run.
func caseChecks(sp *spec.Spec, cs scenario.Case, res scenario.Result) []Check {
	e := sp.Expect
	diag := res.Diag
	var out []Check

	if e.Outcome != "" {
		out = append(out, check("outcome", e.Outcome, res.Outcome.String()))
	}
	if e.Completed != nil {
		out = append(out, check("completed",
			strconv.FormatBool(*e.Completed), strconv.FormatBool(res.Completed)))
	}
	for _, want := range e.AnomalyTypes {
		got := "absent"
		for _, f := range diag.Findings {
			if f.Type.String() == want {
				got = "present"
				break
			}
		}
		out = append(out, check("anomaly-types["+want+"]", "present", got))
	}
	nf := len(diag.Findings)
	if e.MinFindings != spec.Unset {
		out = append(out, checkBound("min-findings",
			fmt.Sprintf(">= %d findings", e.MinFindings),
			fmt.Sprintf("%d findings", nf), nf >= e.MinFindings))
	}
	if e.MaxFindings != spec.Unset {
		out = append(out, checkBound("max-findings",
			fmt.Sprintf("<= %d findings", e.MaxFindings),
			fmt.Sprintf("%d findings", nf), nf <= e.MaxFindings))
	}

	culprits := diag.Culprits()
	if e.CulpritsIncludeInjected {
		detected := make(map[fabric.FlowKey]bool, len(culprits))
		for _, f := range culprits {
			detected[f] = true
		}
		missing := 0
		for key := range cs.InjectedKeys() {
			if !detected[key] {
				missing++
			}
		}
		got := "all injected flows among the culprits"
		if missing > 0 {
			got = fmt.Sprintf("%d of %d injected flows missing from the culprits", missing, len(cs.Flows))
		}
		out = append(out, check("culprits-include-injected",
			"all injected flows among the culprits", got))
	}
	if e.MinCulprits != spec.Unset {
		out = append(out, checkBound("min-culprits",
			fmt.Sprintf(">= %d culprits", e.MinCulprits),
			fmt.Sprintf("%d culprits", len(culprits)), len(culprits) >= e.MinCulprits))
	}
	if e.MaxCulprits != spec.Unset {
		out = append(out, checkBound("max-culprits",
			fmt.Sprintf("<= %d culprits", e.MaxCulprits),
			fmt.Sprintf("%d culprits", len(culprits)), len(culprits) <= e.MaxCulprits))
	}

	if e.MinVictims != spec.Unset || e.VictimsAreCollective {
		victims := victimSet(diag)
		if e.MinVictims != spec.Unset {
			out = append(out, checkBound("min-victims",
				fmt.Sprintf(">= %d victim flows", e.MinVictims),
				fmt.Sprintf("%d victim flows", len(victims)), len(victims) >= e.MinVictims))
		}
		if e.VictimsAreCollective {
			stray := 0
			for _, v := range victims {
				if !res.CFs[v] {
					stray++
				}
			}
			got := "every victim is a collective flow"
			if stray > 0 {
				got = fmt.Sprintf("%d of %d victims are not collective flows", stray, len(victims))
			}
			out = append(out, check("victims-are-collective",
				"every victim is a collective flow", got))
		}
	}

	if e.MinConfidence != spec.Unset {
		out = append(out, checkBound("min-confidence",
			">= "+ftoa(e.MinConfidence), ftoa(res.Confidence),
			res.Confidence >= e.MinConfidence))
	}
	if e.MaxConfidence != spec.Unset {
		out = append(out, checkBound("max-confidence",
			"<= "+ftoa(e.MaxConfidence), ftoa(res.Confidence),
			res.Confidence <= e.MaxConfidence))
	}

	if e.RootLocalized {
		out = append(out, rootLocalizedCheck(cs, diag))
	}
	return out
}

// victimSet collects the distinct affected flows across all findings, in
// deterministic order.
func victimSet(diag *diagnose.Diagnosis) []fabric.FlowKey {
	seen := make(map[fabric.FlowKey]bool)
	var out []fabric.FlowKey
	for _, f := range diag.Findings {
		for _, v := range f.Affected {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// rootLocalizedCheck applies the paper's PFC localization criterion,
// scenario's Case.RootLocalized, the one Evaluate scores with.
func rootLocalizedCheck(cs scenario.Case, diag *diagnose.Diagnosis) Check {
	want := ""
	switch cs.Kind {
	case scenario.PFCStorm:
		want = fmt.Sprintf("a pfc-storm finding rooted at switch %d", cs.StormSwitch)
	case scenario.PFCBackpressure:
		want = fmt.Sprintf("a PFC finding rooted at port %d/%d",
			cs.BackpressureRoot.Node, cs.BackpressureRoot.Port)
	}
	got := "no finding localizes the root"
	if slices.ContainsFunc(diag.Findings, cs.RootLocalized) {
		got = want
	}
	return check("root-localized", want, got)
}

// aggregateChecks evaluates the spec-level precision/recall expectations
// over all cases.
func aggregateChecks(sp *spec.Spec, m scenario.Metrics) []Check {
	e := sp.Expect
	var out []Check
	if e.Precision != spec.Unset {
		out = append(out, check("precision", ftoa(e.Precision), ftoa(m.Precision())))
	}
	if e.Recall != spec.Unset {
		out = append(out, check("recall", ftoa(e.Recall), ftoa(m.Recall())))
	}
	if e.MinPrecision != spec.Unset {
		out = append(out, checkBound("min-precision",
			">= "+ftoa(e.MinPrecision), ftoa(m.Precision()),
			m.Precision() >= e.MinPrecision))
	}
	if e.MinRecall != spec.Unset {
		out = append(out, checkBound("min-recall",
			">= "+ftoa(e.MinRecall), ftoa(m.Recall()),
			m.Recall() >= e.MinRecall))
	}
	return out
}
