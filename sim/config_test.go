package sim_test

import (
	"strings"
	"testing"

	"cycledger/sim"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	want, err := sim.Resolve(
		sim.WithTopology(8, 20, 4, 15),
		sim.WithRounds(5),
		sim.WithWorkload(50, 0.4, 0.1),
		sim.WithAdversary(0.1, "equivocate,conceal", true),
		sim.WithScheme("ed25519"),
		sim.WithSeed(99),
		sim.WithPipeline(true, 4),
		sim.WithRecovery(false),
		sim.WithPreScreenCross(true),
		sim.WithParallelBlockGen(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := want.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed the config:\n got  %+v\n want %+v", got, want)
	}

	// The same document must overlay identically through the option.
	viaOpt, err := sim.Resolve(sim.FromJSON(data))
	if err != nil {
		t.Fatal(err)
	}
	if viaOpt != want {
		t.Fatalf("FromJSON diverges from ParseConfig:\n got  %+v\n want %+v", viaOpt, want)
	}
}

func TestConfigPartialOverlay(t *testing.T) {
	got, err := sim.ParseConfig([]byte(`{"m": 7, "seed": 42}`))
	if err != nil {
		t.Fatal(err)
	}
	def := sim.DefaultConfig()
	if got.M != 7 || got.Seed != 42 {
		t.Fatalf("overlay did not apply: %+v", got)
	}
	if got.C != def.C || got.Rounds != def.Rounds {
		t.Fatalf("overlay clobbered defaults: %+v", got)
	}
}

func TestConfigRejectsUnknownFields(t *testing.T) {
	if _, err := sim.ParseConfig([]byte(`{"comittees": 4}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
	// The simulator is the only network; a document naming a transport
	// asks for something no run can provide.
	if _, err := sim.ParseConfig([]byte(`{"transport": "live"}`)); err == nil {
		t.Fatal("removed transport field accepted")
	}
}

func TestParseBehavior(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Behavior
	}{
		{"", sim.Behavior{}},
		{"honest", sim.Behavior{}},
		{"invert", sim.Behavior{Vote: 1}},
		{"equivocate,conceal", sim.Behavior{EquivocateIntra: true, ConcealCross: true}},
		{"offline", sim.Behavior{Offline: true}},
		{" lazy , censor ", sim.Behavior{Vote: 2, CensorAll: true}},
	} {
		got, err := sim.ParseBehavior(tc.in)
		if err != nil {
			t.Errorf("ParseBehavior(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBehavior(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"sleepy", "invert,lazy", "equivocate;conceal"} {
		if _, err := sim.ParseBehavior(bad); err == nil {
			t.Errorf("ParseBehavior(%q) accepted", bad)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	for name, opts := range map[string][]sim.Option{
		"unknown behavior": {sim.WithAdversary(0.1, "sleepy", false)},
		"unknown scheme":   {sim.WithScheme("rsa")},
		"zero seed":        {sim.WithSeed(0)},
		"bad fraction":     {sim.WithWorkload(10, 1.5, 0)},
		"bad topology":     {sim.WithTopology(0, 16, 3, 9)},
	} {
		if _, err := sim.New(opts...); err == nil {
			t.Errorf("New accepted %s", name)
		}
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := []string{"default", "paper-scale", "scale-10x", "scale-50x", "leader-fault",
		"no-recovery", "dos-prescreen", "parallel-blockgen", "cross-heavy", "reputation"}
	for _, name := range names {
		s, ok := sim.Lookup(name)
		if !ok {
			t.Errorf("builtin scenario %q not registered", name)
			continue
		}
		if s.Description == "" || s.Paper == "" {
			t.Errorf("scenario %q missing description or paper anchor", name)
		}
		if _, err := s.Config(); err != nil {
			t.Errorf("scenario %q does not resolve: %v", name, err)
		}
	}
	if len(sim.List()) < 6 {
		t.Fatalf("only %d scenarios registered, want ≥ 6", len(sim.List()))
	}

	if err := sim.Register(sim.Scenario{Name: "default"}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration: err = %v", err)
	}
	if err := sim.Register(sim.Scenario{}); err == nil {
		t.Fatal("empty-name scenario accepted")
	}
	if _, ok := sim.Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup found an unregistered scenario")
	}

	list := sim.List()
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatalf("List not sorted: %q before %q", list[i-1].Name, list[i].Name)
		}
	}
}
