package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"cycledger/internal/protocol"
)

// A session is one engine built from a workload and the rounds run on it.
// Every round passes the per-round correctness gate before it is kept.
type session struct {
	eng     *protocol.Engine
	offered int    // transactions offered per round: M × TxPerCommittee
	genesis uint64 // total value of the genesis UTXO set
	fees    uint64 // fees of every round run so far

	reports []*protocol.RoundReport // every round, warm-up included
	digests []string                // digest of each report, same order
	warm    int                     // leading rounds that are warm-up

	walls []float64 // wall seconds of each timed RunRound
	cpus  []float64 // process CPU seconds of each timed RunRound
}

// newSession builds the engine and runs the warm-up rounds. The returned
// duration is the set-up time: engine construction (keygen, genesis, node
// registration) plus the warm-up rounds.
func newSession(p protocol.Params, warm int, hooks *protocol.Hooks) (*session, float64, error) {
	start := time.Now()
	eng, err := protocol.NewEngine(p)
	if err != nil {
		return nil, 0, fmt.Errorf("building engine: %w", err)
	}
	if hooks != nil {
		eng.SetHooks(*hooks)
	}
	s := &session{eng: eng, offered: p.M * p.TxPerCommittee, warm: warm}
	var reports []*protocol.RoundReport
	for i := 0; i < warm; i++ {
		rep, err := eng.RunRound()
		if err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("warm-up round %d: %w", i+1, err)
		}
		reports = append(reports, rep)
	}
	setup := time.Since(start).Seconds()

	g, err := eng.GenesisUTXO()
	if err != nil {
		eng.Close()
		return nil, 0, fmt.Errorf("rebuilding genesis: %w", err)
	}
	s.genesis = g.TotalValue()
	for _, rep := range reports {
		if err := s.keep(rep); err != nil {
			eng.Close()
			return nil, 0, err
		}
	}
	return s, setup, nil
}

// timedRound runs one timed round and gates it.
func (s *session) timedRound() error {
	rep, err := s.runTimed()
	if err != nil {
		return err
	}
	return s.keep(rep)
}

// runTimed runs one round, recording the wall and CPU time of the
// RunRound call alone.
func (s *session) runTimed() (*protocol.RoundReport, error) {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	rep, err := s.eng.RunRound()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return nil, fmt.Errorf("round %d: %w", len(s.reports)+1, err)
	}
	s.walls = append(s.walls, wall)
	s.cpus = append(s.cpus, cpu)
	return rep, nil
}

// keep applies the per-round gate and records the report's digest:
// every offered transaction is either committed or rejected, and the
// live UTXO value plus all fees paid so far equals the genesis value.
func (s *session) keep(rep *protocol.RoundReport) error {
	if got := rep.Throughput() + rep.Rejected; got != s.offered {
		return fmt.Errorf("round %d: committed %d + rejected %d ≠ offered %d",
			rep.Round, rep.Throughput(), rep.Rejected, s.offered)
	}
	s.fees += rep.Fees
	if live := s.eng.UTXO().TotalValue(); live+s.fees != s.genesis {
		return fmt.Errorf("round %d: live value %d + fees %d ≠ genesis value %d",
			rep.Round, live, s.fees, s.genesis)
	}
	d, err := digest(rep)
	if err != nil {
		return err
	}
	s.reports = append(s.reports, rep)
	s.digests = append(s.digests, d)
	return nil
}

// finish re-verifies the whole chain against the genesis state and
// releases the engine.
func (s *session) finish() error {
	defer s.eng.Close()
	g, err := s.eng.GenesisUTXO()
	if err != nil {
		return fmt.Errorf("rebuilding genesis: %w", err)
	}
	if err := s.eng.Chain().Verify(g); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	return nil
}

// timed returns the reports of the timed rounds.
func (s *session) timed() []*protocol.RoundReport { return s.reports[s.warm:] }

// digest hashes a report's deterministic fields. RoundReport holds no
// wall-clock data, and encoding/json writes map keys sorted, so equal
// reports give equal digests.
func digest(rep *protocol.RoundReport) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("encoding round %d report: %w", rep.Round, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// firstMismatch compares two digest sequences over their common prefix
// and returns the index of the first difference, or -1.
func firstMismatch(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
