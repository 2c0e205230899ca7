package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cycledger/sim"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		want  string
		stack []string // leaf first
	}{
		{"pow", []string{
			"crypto/sha256.block",
			"cycledger/internal/crypto.(*PrefixHasher).SumWith",
			"cycledger/internal/pow.Solve",
			"cycledger/internal/protocol.(*Engine).stagePow",
			"main.(*session).timedRound",
		}},
		{"crypto.vrf", []string{
			"crypto/internal/fips140/edwards25519.(*Point).ScalarBaseMult",
			"cycledger/internal/crypto.Verify",
			"cycledger/internal/crypto.VRFVerify",
			"cycledger/internal/committee.(*ConfigNode).verify",
			"cycledger/internal/simnet.(*Network).execLaneFast",
		}},
		{"runtime.gc", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}},
		{"crypto.sig", []string{
			"crypto/sha256.block",
			"cycledger/internal/consensus.HashScheme.Verify",
			"cycledger/internal/consensus.(*Instance).onEcho",
		}},
		{"crypto.sig", []string{"cycledger/internal/consensus.(*HashScheme).AppendSign"}},
		{"consensus", []string{
			"runtime.mapassign_faststr",
			"cycledger/internal/consensus.(*Instance).maybeConfirm",
			"cycledger/internal/protocol.(*Node).Handle",
		}},
		{"simnet", []string{
			"runtime.mallocgc",
			"cycledger/internal/transport.(*Sim).RunUntilIdle",
			"cycledger/internal/protocol.(*Engine).phaseIntra",
		}},
		{"pvss", []string{"math/big.nat.expNN", "cycledger/internal/pvss.(*Group).Exp"}},
		// A package outside the layer table (the codec) is passed over.
		{"protocol", []string{
			"cycledger/internal/wire.AppendEncode",
			"cycledger/internal/protocol.(*Engine).collectTraffic",
		}},
		{"runtime.other", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
		{"runtime.other", []string{"main.(*session).keep", "main.main"}},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack[0], got, c.want)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := []float64{5, 4}
	median(xs)
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var run []byte
	for _, v := range vs {
		run = binary.AppendUvarint(run, v)
	}
	return b.bytes(num, run)
}

func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "samples", "count",
		"cycledger/internal/crypto.VRFVerify", "cycledger/internal/committee.(*ConfigNode).verify",
		"runtime.gcBgMarkWorker"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2)) // sample_type, skipped
	// Packed location IDs and values.
	p = p.bytes(2, pb{}.packed(1, 1, 2).packed(2, 3, 30_000_000))
	// One value per field.
	p = p.bytes(2, pb{}.varint(1, 3).varint(2, 1).varint(2, 10_000_000))
	// Location 1 holds VRFVerify inlined into ConfigNode.verify.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 10)).bytes(4, pb{}.varint(1, 11)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 11)))
	p = p.bytes(4, pb{}.varint(1, 3).varint(3, 0x1234).bytes(4, pb{}.varint(1, 12)))
	p = p.bytes(5, pb{}.varint(1, 10).varint(2, 3))
	p = p.bytes(5, pb{}.varint(1, 11).varint(2, 4))
	p = p.bytes(5, pb{}.varint(1, 12).varint(2, 5))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	stacks, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(stacks))
	}
	want := []string{strs[3], strs[4], strs[4]}
	if strings.Join(stacks[0].frames, "|") != strings.Join(want, "|") || stacks[0].count != 3 {
		t.Errorf("sample 0 = %+v, want frames %q count 3", stacks[0], want)
	}
	shares, total, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 || shares["crypto.vrf"] != 75 || shares["runtime.gc"] != 25 {
		t.Errorf("shares = %v over %d samples, want crypto.vrf 75%%, runtime.gc 25%% over 4", shares, total)
	}

	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decoded a profile that is not gzip")
	}
	gz.Reset()
	zw = gzip.NewWriter(&gz)
	zw.Write(pb{}.bytes(2, []byte{0x0a, 0x05, 0x01}))
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Error("decoded a truncated field")
	}
}

var small = workload{
	name:   "small",
	window: 2,
	opts: []sim.Option{
		sim.WithTopology(2, 8, 2, 4),
		sim.WithWorkload(20, 0.5, 0),
		sim.WithPowHardness(64),
	},
}

var smallFaulted = workload{
	name:   "small-faulted",
	window: 2,
	opts: append(append([]sim.Option(nil), small.opts...), sim.WithFaults(sim.FaultsConfig{
		Loss:     0.05,
		Adaptive: &sim.AdaptiveSpec{Budget: 1, CrashLeaders: true},
	})),
}

// TestParallelismDigests: the rounds of one seed are identical at
// parallelism 1 and 2, with and without faults.
func TestParallelismDigests(t *testing.T) {
	for _, w := range []workload{small, smallFaulted} {
		var runs [2][]string
		for i, par := range []int{1, 2} {
			p, err := w.params(7, par)
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := newSession(p, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				if err := s.timedRound(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.finish(); err != nil {
				t.Fatal(err)
			}
			runs[i] = s.digests
		}
		if i := firstMismatch(runs[0], runs[1]); i >= 0 || len(runs[0]) != 3 {
			t.Errorf("%s: parallelism 1 and 2 differ at round %d (%d rounds)", w.name, i+1, len(runs[0]))
		}
	}
}

func newTestBench(w workload, dir string) (*bench, *bytes.Buffer) {
	var out bytes.Buffer
	return &bench{w: w, seed: 3, seconds: 0.01, stateDir: dir, out: &out, metrics: map[string]metric{}}, &out
}

// TestRunsAndStoredDigests runs both modes on a small workload: each
// reports its metrics, the traced run matches the untraced one, and a
// stored digest that disagrees fails the next run.
func TestRunsAndStoredDigests(t *testing.T) {
	dir := t.TempDir()
	b, out := newTestBench(smallFaulted, dir)
	if err := b.run(false); err != nil {
		t.Fatalf("untraced: %v\n%s", err, out)
	}
	for _, m := range []string{"setup_s", "round_wall_s.p50", "committed_tx_per_s", "cpu_s_per_round",
		"max_rss_mb", "sim_ticks_per_round", "tx_per_round", "tx_commit_ratio", "sim_bytes_per_tx"} {
		if v, ok := b.metrics[m]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
			t.Errorf("untraced metric %s = %+v", m, v)
		}
	}
	if want := 1 + setupReps*warmRounds; b.attempted < want || b.failed != 0 {
		t.Errorf("attempted %d, failed %d; want ≥ %d, 0", b.attempted, b.failed, want)
	}

	b, out = newTestBench(smallFaulted, dir)
	if err := b.run(true); err != nil {
		t.Fatalf("traced: %v\n%s", err, out)
	}
	if len(b.metrics) != 2*len(stages)+15+len(cpuLayers)+5 {
		t.Errorf("traced run reported %d metrics", len(b.metrics))
	}
	if v := b.metrics["simnet.events_per_round"].Value; v <= 0 {
		t.Errorf("simnet.events_per_round = %v", v)
	}

	files, err := filepath.Glob(filepath.Join(dir, "small-faulted.seed3.*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("stored digests: %v, %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, _ = newTestBench(smallFaulted, dir)
	if err := b.run(false); err == nil || !strings.Contains(err.Error(), "earlier run") {
		t.Errorf("run against a corrupted digest store: err = %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "faulted", "--trace", "2"},
		{"--workload", "faulted", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want 2 and none", args, code, out.String())
		}
	}
}

func TestEngineSeed(t *testing.T) {
	for in, want := range map[int64]int64{1: 1, 42: 42, 0: -1, -1: -2} {
		if got := engineSeed(in); got != want {
			t.Errorf("engineSeed(%d) = %d, want %d", in, got, want)
		}
	}
}
