package protocol

import (
	"strings"
	"testing"
)

// TestMetricsRetentionBounded pins the traffic accounting's retention to
// the last completed round: after 20 rounds the engine holds exactly as
// many per-(phase, node) counters as after 2, under both schedules, and
// the retained labels are the latest round's.
func TestMetricsRetentionBounded(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		p := DefaultParams()
		p.M, p.C, p.Lambda, p.RefSize = 2, 8, 2, 5
		p.TxPerCommittee = 10
		p.Pipelined = pipelined
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		run := func(rounds int) {
			for i := 0; i < rounds; i++ {
				if _, err := e.RunRound(); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := e.Net.Metrics()
		run(2)
		size2, phases2 := m.Counters(), len(m.Phases())
		run(18)
		if got := m.Counters(); got != size2 {
			t.Fatalf("pipelined=%v: %d counters after 20 rounds, %d after 2", pipelined, got, size2)
		}
		got := m.Phases()
		if len(got) != phases2 {
			t.Fatalf("pipelined=%v: %d phase labels after 20 rounds, %d after 2", pipelined, len(got), phases2)
		}
		for _, label := range got {
			if !strings.HasPrefix(label, roundPhaseLabel(20, "")) {
				t.Fatalf("pipelined=%v: label %s of an older round retained", pipelined, label)
			}
		}
		for _, ph := range []string{"config", "semicommit", "intra", "inter", "score", "select", "block"} {
			if m.TrafficByNodes(roundPhaseLabel(20, ph), e.roster.Referee).Messages == 0 {
				t.Fatalf("pipelined=%v: last round's %s traffic unreadable", pipelined, ph)
			}
		}
	}
}
