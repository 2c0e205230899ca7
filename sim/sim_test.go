package sim_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
	"cycledger/sim"
)

// TestScenarioGolden proves the facade adds nothing to the engine's
// semantics: for every registered scenario, sim.New(...).Run is
// byte-identical (under canonical JSON, which sorts all map keys) to
// constructing protocol.NewEngine with the equivalent Params directly.
//
// The facade run also proves codec fidelity: it sends every message
// through wire.RoundTrip, so each declared size must equal the codec's and
// every handler receives a decoded copy of the encoding rather than the
// sender's value. Fault models, adaptive adversaries and byzantine
// behaviours included, the reports must still match the plain run.
func TestScenarioGolden(t *testing.T) {
	for _, scen := range sim.List() {
		t.Run(scen.Name, func(t *testing.T) {
			if (scen.Name == "paper-scale" || scen.Name == "scale-10x") && os.Getenv("CYCLEDGER_PAPER_SCALE") == "" {
				t.Skip("set CYCLEDGER_PAPER_SCALE=1 to golden-test the paper-scale and 10×-scale scenarios")
			}
			if scen.Name == "scale-50x" && os.Getenv("CYCLEDGER_SCALE_BIG") == "" {
				t.Skip("set CYCLEDGER_SCALE_BIG=1 to golden-test the 50×-scale scenario (a ~97k-node round, twice)")
			}
			cfg, err := scen.Config()
			if err != nil {
				t.Fatal(err)
			}
			p, err := cfg.Params()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := protocol.NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}

			s, err := scen.New()
			if err != nil {
				t.Fatal(err)
			}
			var tripped atomic.Int64
			s.Engine().Net.SetSendHook(func(m simnet.Message) any {
				tripped.Add(1)
				v, err := wire.RoundTrip(m)
				if err != nil {
					t.Error(err)
					return m.Payload
				}
				return v
			})
			got, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("facade run diverges from direct engine run\n direct: %s\n facade: %s", wantJSON, gotJSON)
			}
			if tripped.Load() == 0 {
				t.Error("send hook never fired")
			}
			t.Logf("%d payloads round-tripped through the codec", tripped.Load())
		})
	}
}

// small returns options for a fast topology used by the behavioural tests.
func small(extra ...sim.Option) []sim.Option {
	opts := []sim.Option{
		sim.WithTopology(2, 6, 1, 3),
		sim.WithWorkload(6, 0.25, 0),
		sim.WithSeed(7),
	}
	return append(opts, extra...)
}

func TestRunCancellation(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "sequential"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stopAfter = 2
			var seen int
			var s *sim.Sim
			var err error
			s, err = sim.New(small(
				sim.WithRounds(1000), // would run for a very long time uncancelled
				sim.WithPipeline(pipelined, 2),
				sim.WithObserver(sim.Funcs{Round: func(r *sim.RoundReport) {
					seen++
					if seen == stopAfter {
						cancel()
					}
				}}),
			)...)
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			var reports []*sim.RoundReport
			var runErr error
			go func() {
				defer close(done)
				reports, runErr = s.Run(ctx)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("cancelled run did not return (deadlock?)")
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", runErr)
			}
			if len(reports) != stopAfter {
				t.Fatalf("completed %d rounds before stopping, want %d", len(reports), stopAfter)
			}
		})
	}
}

func TestRunPreCancelled(t *testing.T) {
	s, err := sim.New(small(sim.WithRounds(3))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if len(reports) != 0 {
		t.Fatalf("pre-cancelled run completed %d rounds, want 0", len(reports))
	}
}

func TestRoundsIteratorResume(t *testing.T) {
	s, err := sim.New(small(sim.WithRounds(3))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Pull one round, then break.
	for r, err := range s.Rounds(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if r.Round != 1 {
			t.Fatalf("first yielded round = %d, want 1", r.Round)
		}
		break
	}
	if got := len(s.Reports()); got != 1 {
		t.Fatalf("after break: %d reports, want 1", got)
	}

	// Resuming continues from round 2 and finishes the run.
	var rounds []uint64
	for r, err := range s.Rounds(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, r.Round)
	}
	if len(rounds) != 2 || rounds[0] != 2 || rounds[1] != 3 {
		t.Fatalf("resumed rounds = %v, want [2 3]", rounds)
	}

	// A finished run yields nothing more.
	for range s.Rounds(ctx) {
		t.Fatal("iterator yielded past the configured rounds")
	}
}

func TestObserverStream(t *testing.T) {
	scen, ok := sim.Lookup("leader-fault")
	if !ok {
		t.Fatal("leader-fault scenario not registered")
	}
	var phases []string
	var roundsSeen, recoveries int
	s, err := scen.New(sim.WithObserver(sim.Funcs{
		Phase:    func(_ uint64, phase string) { phases = append(phases, phase) },
		Round:    func(r *sim.RoundReport) { roundsSeen++ },
		Recovery: func(ev sim.RecoveryEvent) { recoveries++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if roundsSeen != len(reports) {
		t.Fatalf("OnRound fired %d times for %d rounds", roundsSeen, len(reports))
	}
	want := []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}
	if len(phases) != len(want) {
		t.Fatalf("observed phases %v, want %v", phases, want)
	}
	for i, ph := range want {
		if phases[i] != ph {
			t.Fatalf("phase[%d] = %q, want %q (all: %v)", i, phases[i], ph, phases)
		}
	}
	var totalRecoveries int
	for _, r := range reports {
		totalRecoveries += len(r.Recoveries)
	}
	if totalRecoveries == 0 {
		t.Fatal("leader-fault scenario produced no recoveries")
	}
	if recoveries != totalRecoveries {
		t.Fatalf("OnRecovery fired %d times, reports carry %d recoveries", recoveries, totalRecoveries)
	}
}

// TestObserverPipelinedRace exists for the -race CI job: observer
// callbacks under the pipelined engine hop stage goroutines and must stay
// serialised by the facade.
func TestObserverPipelinedRace(t *testing.T) {
	var events int
	s, err := sim.New(small(
		sim.WithRounds(2),
		sim.WithPipeline(true, 2),
		sim.WithObserver(sim.Funcs{
			Phase: func(uint64, string) { events++ },
			Round: func(*sim.RoundReport) { events++ },
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no observer events fired")
	}
}
