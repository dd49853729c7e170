package vedrtest

import (
	"path/filepath"
	"testing"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/wire"
)

// TestReplayStreamOrderAndHosts pins what every kill-after cut point in
// the corpus counts on: the census goes first in flow-key order whatever
// order the map yields it in, then the records and the reports each in run
// order, and every message is attributed to the host that produced it —
// a flow's source, a record's host, the source of the flow that triggered
// a report.
func TestReplayStreamOrderAndHosts(t *testing.T) {
	flow := func(src, dst topo.NodeID) fabric.FlowKey {
		return fabric.FlowKey{Src: src, Dst: dst, SrcPort: 5000, DstPort: 5000, Proto: 17}
	}
	res := scenario.Result{
		CFs: map[fabric.FlowKey]bool{flow(12, 3): true, flow(2, 7): true, flow(2, 4): true},
		Records: []collective.StepRecord{
			{Host: 9, Step: 1},
			{Host: 4, Step: 0},
		},
		Reports: []*telemetry.Report{
			{At: 20, TriggeredBy: flow(11, 1)},
			{At: 10, TriggeredBy: flow(5, 1)},
		},
	}
	type row struct {
		host, kind string
		key        int64 // what tells the message from its neighbours of the same kind
	}
	want := []row{
		{"h02", wire.MsgCF, 4}, {"h02", wire.MsgCF, 7}, {"h12", wire.MsgCF, 3},
		{"h09", wire.MsgStep, 1}, {"h04", wire.MsgStep, 0},
		{"h11", wire.MsgReport, 20}, {"h05", wire.MsgReport, 10},
	}
	for round := 0; round < 20; round++ { // map iteration order differs between calls
		subs := replayStream(res)
		if len(subs) != len(want) {
			t.Fatalf("stream has %d messages, want %d", len(subs), len(want))
		}
		for i, sub := range subs {
			got := row{host: sub.host, kind: sub.msg.Type}
			switch {
			case sub.msg.CF != nil:
				got.key = int64(sub.msg.CF.Dst)
			case sub.msg.Step != nil:
				got.key = int64(sub.msg.Step.Step)
			case sub.msg.Report != nil:
				got.key = sub.msg.Report.AtNS
			}
			if got != want[i] {
				t.Fatalf("message %d = %+v, want %+v", i, got, want[i])
			}
			if sub.send == nil {
				t.Fatalf("message %d has no send func", i)
			}
			if sub.msg.Client != "" || sub.msg.Seq != 0 {
				t.Fatalf("message %d is already sourced (%s/%d); the replay loop assigns client and seq",
					i, sub.msg.Client, sub.msg.Seq)
			}
		}
	}
}

// TestAnalyzerdSpecEndToEnd runs the corpus's crash-recovery spec for real:
// a vedranalyzerd subprocess is fed the replay over the seq/ack client,
// SIGKILLed mid-stream, restarted on the same WAL directory, and its
// drained diagnosis compared byte-for-byte with the local bundle analysis.
func TestAnalyzerdSpecEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-tests a real daemon; skipped with -short")
	}
	rep := (&Runner{}).RunFile(filepath.Join(corpusDir, "analyzerd_crash_recovery.yaml"))
	if rep.LoadFailed {
		t.Fatalf("spec failed to load: %s", rep.Err)
	}
	if rep.Mode != "analyzerd" {
		t.Fatalf("mode = %q, want analyzerd", rep.Mode)
	}
	if rep.Failed() {
		t.Fatalf("end-to-end spec failed:\n%s", FailureDiff(rep))
	}

	seen := map[string]bool{}
	for _, cs := range rep.Cases {
		for _, c := range cs.Checks {
			seen[c.Field] = true
		}
	}
	for _, field := range []string{
		"analyzerd.crash-recovery",
		"analyzerd.ingested",
		"analyzerd.diagnosis-parity",
		"analyzerd.outcome",
	} {
		if !seen[field] {
			t.Errorf("end-to-end run emitted no %q check", field)
		}
	}
}
