package pvss

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// fixedBaseExponents covers the table's edges: zero, one, single- and
// cross-word windows, Q−1 (the largest in-range exponent), the widest
// exponent the table accepts, and random field elements.
func fixedBaseExponents(g *Group, rng *rand.Rand) []*big.Int {
	maxIn := new(big.Int).Lsh(big.NewInt(1), uint(defaultFixed.maxBits))
	maxIn.Sub(maxIn, big.NewInt(1))
	es := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(63),
		big.NewInt(64),
		new(big.Int).Lsh(big.NewInt(1), 64),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 130), big.NewInt(1)),
		new(big.Int).Sub(g.Q, big.NewInt(1)),
		g.Q,
		maxIn,
	}
	for i := 0; i < 40; i++ {
		es = append(es, g.randScalar(rng))
	}
	return es
}

// TestFixedBaseExpMatchesBigExp: the default group's table-driven Exp
// equals big.Int.Exp for every exponent the table covers.
func TestFixedBaseExpMatchesBigExp(t *testing.T) {
	g := DefaultGroup()
	for _, e := range fixedBaseExponents(g, rand.New(rand.NewSource(1))) {
		if defaultFixed.exp(g, e) == nil {
			t.Fatalf("exponent of %d bits fell back; the table covers %d", e.BitLen(), defaultFixed.maxBits)
		}
		want := new(big.Int).Exp(g.G, e, g.P)
		if got := g.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%x) = %x, want %x", e, got, want)
		}
	}
}

// TestFixedBaseExpFallback: an exponent wider than the table, a negative
// exponent, a hand-built group, and a default group whose generator was
// replaced all take big.Int.Exp and still agree with it.
func TestFixedBaseExpFallback(t *testing.T) {
	g := DefaultGroup()
	wide := new(big.Int).Lsh(big.NewInt(3), uint(defaultFixed.maxBits))
	neg := big.NewInt(-5)
	for _, e := range []*big.Int{wide, neg} {
		if defaultFixed.exp(g, e) != nil {
			t.Fatalf("exponent %v used the table, want fallback", e)
		}
		want := new(big.Int).Exp(g.G, e, g.P)
		if got := g.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%v) = %x, want %x", e, got, want)
		}
	}

	e := g.randScalar(rand.New(rand.NewSource(2)))
	hand := &Group{P: g.P, Q: g.Q, G: big.NewInt(9)}
	if got, want := hand.Exp(e), new(big.Int).Exp(big.NewInt(9), e, g.P); got.Cmp(want) != 0 {
		t.Fatalf("hand-built group Exp = %x, want %x", got, want)
	}
	moved := DefaultGroup()
	moved.G = big.NewInt(16)
	if defaultFixed.exp(moved, e) != nil {
		t.Fatal("a default group with a replaced generator used the g = 4 table")
	}
	if got, want := moved.Exp(e), new(big.Int).Exp(big.NewInt(16), e, g.P); got.Cmp(want) != 0 {
		t.Fatalf("replaced-generator Exp = %x, want %x", got, want)
	}
}

// TestFixedBaseExpConcurrent: concurrent callers share the read-only table
// and the scratch pool without interfering (run under -race in CI).
func TestFixedBaseExpConcurrent(t *testing.T) {
	g := DefaultGroup()
	es := fixedBaseExponents(g, rand.New(rand.NewSource(3)))
	want := make([]*big.Int, len(es))
	for i, e := range es {
		want[i] = new(big.Int).Exp(g.G, e, g.P)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range es {
				i := (k + w*7) % len(es)
				if got := DefaultGroup().Exp(es[i]); got.Cmp(want[i]) != 0 {
					t.Errorf("worker %d: Exp(es[%d]) = %x, want %x", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkFixedBaseExp isolates the PVSS group exponentiation (the
// beacon's dealing and share checks): the fixed-base table against the
// big.Int.Exp it replaces for the default generator.
func BenchmarkFixedBaseExp(b *testing.B) {
	g := DefaultGroup()
	e := g.randScalar(rand.New(rand.NewSource(4)))
	g.Exp(e) // build the table outside the timed loop
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Exp(e)
		}
	})
	b.Run("bigint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			new(big.Int).Exp(g.G, e, g.P)
		}
	})
}
