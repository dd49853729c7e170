// Package a exercises the stale-suppression audit with nosystime as the
// only analyzer run: a //lint:ignore that suppresses nothing in the run is
// reported, whether it names the analyzer that ran or one that did not.
package a

import "time"

func used() {
	//lint:ignore nosystime the one suppression here that covers a finding
	_ = time.Now()
}

func staleSameAnalyzer() {
	//lint:ignore nosystime nothing below reads the clock // want `stale //lint:ignore nosystime`
	_ = time.Second
}

// An analyzer that is not part of the run can never use its suppression,
// so the comment is stale rather than silently kept.
func staleOtherAnalyzer() {
	//lint:ignore seededrand no analyzer by this name runs here // want `stale //lint:ignore seededrand`
	_ = time.Second
}

// One analyzer name per comment: "all" is just a name no analyzer has,
// and a comma list is not a suppression at all.
func oneNamePerComment() {
	//lint:ignore all no analyzer has this name // want `stale //lint:ignore all`
	_ = time.Now() // want `time\.Now reads the host clock`
	//lint:ignore nosystime,seededrand a list suppresses nothing
	_ = time.Now() // want `time\.Now reads the host clock`
}
