package sim_test

import (
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"cycledger/internal/simnet"
	"cycledger/internal/wire"
	"cycledger/sim"
)

// runOverCodec runs the facade built from opts twice — plain, and with
// wire.RoundTrip as the simnet send hook, so every message crosses the
// wire codec and each handler receives a decoded copy of the encoding —
// and returns both runs' reports.
func runOverCodec(t *testing.T, opts ...sim.Option) (plain, tripped []*sim.RoundReport) {
	t.Helper()
	run := func(hook func(simnet.Message) any) []*sim.RoundReport {
		t.Helper()
		s, err := sim.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if hook != nil {
			s.Engine().Net.SetSendHook(hook)
		}
		reports, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	var n atomic.Int64
	tripped = run(func(m simnet.Message) any {
		n.Add(1)
		v, err := wire.RoundTrip(m)
		if err != nil {
			t.Error(err)
			return m.Payload
		}
		return v
	})
	if n.Load() == 0 {
		t.Fatal("send hook never fired")
	}
	return run(nil), tripped
}

// TestTransportParity checks the full default scenario sent over the wire
// codec produces RoundReports identical to the plain run, Duration
// included: every message declares exactly its codec size and decodes to
// an equal value.
func TestTransportParity(t *testing.T) {
	want, got := runOverCodec(t)
	if !reflect.DeepEqual(want, got) {
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		t.Errorf("codec run diverges from the plain run\n plain: %s\n codec: %s", wantJSON, gotJSON)
	}
}

// TestTransportParityByzantine extends the codec check to a byzantine
// population: deviating behaviours change the message mix (equivocation,
// concealment), and every variant must still cross the codec losslessly.
func TestTransportParityByzantine(t *testing.T) {
	want, got := runOverCodec(t, small(sim.WithAdversary(0.2, "equivocate,conceal", true))...)
	if !reflect.DeepEqual(want, got) {
		t.Error("codec run diverges from the plain run under byzantine behaviours")
	}
}

// TestTransportParityAggregate extends the codec check to aggregate
// certificates: the Agg* frames and the tree-relayed broadcasts must cross
// the codec losslessly and reproduce the plain run's reports exactly,
// Duration included.
func TestTransportParityAggregate(t *testing.T) {
	want, got := runOverCodec(t, small(sim.WithAggregateCerts(true))...)
	if !reflect.DeepEqual(want, got) {
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		t.Errorf("codec run diverges from the plain run under aggregate certs\n plain: %s\n codec: %s", wantJSON, gotJSON)
	}
}
