// Package pvss implements the distributed-randomness substrate CycLedger's
// referee committee uses (§IV-F cites SCRAPE): publicly verifiable secret
// sharing built from Shamir sharing over a prime-order group with Feldman
// commitments, plus a leaderless commit-reveal beacon protocol on top.
//
// As long as a majority of the referee committee is honest, the beacon
// output is unpredictable and unbiasable: every dealer is committed to its
// contribution before any secret is revealed, and honest-majority
// reconstruction recovers the contribution of any dealer who aborts after
// committing. These are exactly the properties §V-A relies on.
//
// The group is the order-q subgroup of quadratic residues modulo the
// 768-bit Oakley Group 1 safe prime (p = 2q+1), with generator g = 4. Share
// delivery is point-to-point over the simulated network, so share
// encryption (the "PV" layer of full SCRAPE) is replaced by the simulator's
// private channels; commitments and share verification are implemented in
// full.
package pvss

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
)

// Oakley Group 1 (RFC 2409) 768-bit safe prime: p = 2q + 1 with q prime.
const oakleyPrimeHex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
	"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
	"4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"

// Group describes the prime-order subgroup used for commitments.
type Group struct {
	P *big.Int // safe prime modulus
	Q *big.Int // subgroup order, (P-1)/2
	G *big.Int // generator of the order-Q subgroup (a quadratic residue)

	fixed *fixedBase // set only by DefaultGroup; nil means plain big.Int.Exp
}

// DefaultGroup returns the package's standard group (Oakley 768, g = 4).
// Every returned group shares one process-wide fixed-base table for Exp.
func DefaultGroup() *Group {
	p, q := defaultModuli()
	return &Group{P: p, Q: q, G: big.NewInt(4), fixed: &defaultFixed}
}

func defaultModuli() (p, q *big.Int) {
	p, ok := new(big.Int).SetString(oakleyPrimeHex, 16)
	if !ok {
		panic("pvss: bad prime constant")
	}
	q = new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	return p, q
}

// fixedBaseWindow is the window width w, in bits, of the fixed-base table.
// At w = 6 the default group's table has 128 rows of 63 entries (~1 MB),
// and one Exp is at most 128 modular multiplications.
const fixedBaseWindow = 6

// fixedBase is the windowed fixed-base table for the default group's
// generator: rows[i][d-1] = g^(d·2^(w·i)) mod p, so g^e is the product of
// one entry per w-bit digit of e. It is built once, on first use, and is
// read-only afterwards, so concurrent Exp calls share it freely; each call
// takes its own temporaries from scratch.
type fixedBase struct {
	once    sync.Once
	p, g    *big.Int
	maxBits int // exponents of at most this many bits use the table
	rows    [][]big.Int
	scratch sync.Pool // *expScratch
}

type expScratch struct{ acc, prod, quo big.Int }

var defaultFixed fixedBase

func (f *fixedBase) build() {
	f.p, _ = defaultModuli()
	f.g = big.NewInt(4)
	span := 1 << fixedBaseWindow
	nrows := (f.p.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
	f.maxBits = nrows * fixedBaseWindow
	f.rows = make([][]big.Int, nrows)
	base := new(big.Int).Set(f.g) // g^(2^(w·i)) for the current row i
	var prod big.Int
	for i := range f.rows {
		row := make([]big.Int, span-1)
		row[0].Set(base)
		for d := 1; d < span-1; d++ {
			row[d].Mod(prod.Mul(&row[d-1], base), f.p)
		}
		base.Mul(&row[span-2], base)
		base.Mod(base, f.p)
		f.rows[i] = row
	}
	f.scratch.New = func() any { return new(expScratch) }
}

// exp returns g^e mod p from the table, or nil when the table does not
// apply: the group is not the one the table was built for (its P or G
// was replaced or modified) or e is negative or wider than the table.
func (f *fixedBase) exp(g *Group, e *big.Int) *big.Int {
	f.once.Do(f.build)
	if e.Sign() < 0 || e.BitLen() > f.maxBits || g.G.Cmp(f.g) != 0 || g.P.Cmp(f.p) != 0 {
		return nil
	}
	s := f.scratch.Get().(*expScratch)
	defer f.scratch.Put(s)
	words := e.Bits()
	s.acc.SetInt64(1)
	mask := uint(1)<<fixedBaseWindow - 1
	for i := range f.rows {
		pos := i * fixedBaseWindow
		w, off := pos/bits.UintSize, uint(pos%bits.UintSize)
		if w >= len(words) {
			break
		}
		d := uint(words[w]) >> off
		if off+fixedBaseWindow > bits.UintSize && w+1 < len(words) {
			d |= uint(words[w+1]) << (bits.UintSize - off)
		}
		if d &= mask; d == 0 {
			continue
		}
		s.prod.Mul(&s.acc, &f.rows[i][d-1])
		s.quo.QuoRem(&s.prod, f.p, &s.acc)
	}
	return new(big.Int).Set(&s.acc)
}

// randScalar draws a uniform element of Z_q from the given deterministic
// source (simulation substrate — reproducibility over secrecy).
func (g *Group) randScalar(rng *rand.Rand) *big.Int {
	buf := make([]byte, (g.Q.BitLen()+15)/8)
	for {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		x := new(big.Int).SetBytes(buf)
		x.Mod(x, g.Q)
		if x.Sign() > 0 {
			return x
		}
	}
}

// Exp returns g.G^e mod p. Groups from DefaultGroup walk the shared
// fixed-base table; any other group, or an exponent the table does not
// cover, uses big.Int.Exp. Both paths return the same value.
func (g *Group) Exp(e *big.Int) *big.Int {
	if g.fixed != nil {
		if r := g.fixed.exp(g, e); r != nil {
			return r
		}
	}
	return new(big.Int).Exp(g.G, e, g.P)
}

// mulMod returns a*b mod m.
func mulMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), m)
}

// lagrangeAtZero computes the Lagrange coefficient for index xi among the
// set xs, evaluated at 0, over Z_q:  ∏_{xj≠xi} xj/(xj-xi).
func lagrangeAtZero(g *Group, xi int64, xs []int64) (*big.Int, error) {
	num := big.NewInt(1)
	den := big.NewInt(1)
	bi := big.NewInt(xi)
	for _, xj := range xs {
		if xj == xi {
			continue
		}
		bj := big.NewInt(xj)
		num = mulMod(num, new(big.Int).Mod(bj, g.Q), g.Q)
		diff := new(big.Int).Sub(bj, bi)
		diff.Mod(diff, g.Q)
		den = mulMod(den, diff, g.Q)
	}
	if den.Sign() == 0 {
		return nil, fmt.Errorf("pvss: duplicate share indices")
	}
	denInv := new(big.Int).ModInverse(den, g.Q)
	if denInv == nil {
		return nil, fmt.Errorf("pvss: non-invertible denominator")
	}
	return mulMod(num, denInv, g.Q), nil
}
