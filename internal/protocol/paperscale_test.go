package protocol

import (
	"os"
	"testing"
)

// TestPaperScaleRound runs one full round at the paper's headline scale:
// n = 2000 (20 committees of 97, λ = 40, |C_R| = 60). It takes ~30 s
// (2-vCPU Xeon @ 2.10GHz) and ~6.5M simulated messages, so it is opt-in:
//
//	CYCLEDGER_PAPER_SCALE=1 go test ./internal/protocol -run TestPaperScaleRound -v
//
// Reference result (development container): 1510 transactions included,
// 6,514,570 messages, zero recoveries under an honest population.
func TestPaperScaleRound(t *testing.T) {
	if os.Getenv("CYCLEDGER_PAPER_SCALE") == "" {
		t.Skip("set CYCLEDGER_PAPER_SCALE=1 to run the n=2000 round")
	}
	p := PaperScaleParams()
	p.Rounds = 1
	p.Parallelism = 0
	e, reports := runEngine(t, p)
	r := reports[0]
	if r.Throughput() == 0 {
		t.Fatal("paper-scale round included nothing")
	}
	if r.BlockDelivered < p.TotalNodes()/2 {
		t.Fatalf("block reached only %d/%d nodes", r.BlockDelivered, p.TotalNodes())
	}
	genesis, err := e.GenesisUTXO()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Chain().Verify(genesis); err != nil {
		t.Fatal(err)
	}
	t.Logf("paper scale: tx=%d msgs=%d bytes=%d recoveries=%d",
		r.Throughput(), r.Messages, r.Bytes, len(r.Recoveries))
}
