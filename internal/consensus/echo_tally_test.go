package consensus

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// --- reference oracle ------------------------------------------------------
//
// The pre-tally message handling, kept verbatim as a cross-check oracle for
// the incremental echo tally and the per-instance proposal-signature memo:
// every echo re-verifies the retransmitted proposal, and maybeConfirm
// rescans all recorded echoes on each arrival. The oracle reads only the
// configuration fields of the embedded Protocol; its state is its own.

type oracleInstance struct {
	propose     *Propose
	echoDigests map[simnet.NodeID]crypto.Digest
	echoSigs    map[simnet.NodeID][]byte
	confirmSent bool
	accepted    bool
	confirms    map[simnet.NodeID]Confirm
	decided     bool
	seen        map[crypto.Digest]Propose
	equivocated bool
}

type oracleProtocol struct {
	*Protocol
	insts map[uint64]*oracleInstance
}

func (p *oracleProtocol) inst(sn uint64) *oracleInstance {
	if p.insts == nil {
		p.insts = make(map[uint64]*oracleInstance)
	}
	in := p.insts[sn]
	if in == nil {
		in = &oracleInstance{
			echoDigests: make(map[simnet.NodeID]crypto.Digest),
			echoSigs:    make(map[simnet.NodeID][]byte),
			confirms:    make(map[simnet.NodeID]Confirm),
			seen:        make(map[crypto.Digest]Propose),
		}
		p.insts[sn] = in
	}
	return in
}

func (p *oracleProtocol) Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, size int) {
	prop := BuildPropose(p.Scheme, p.Keys, p.Self, p.Round, sn, digest, payload, size)
	in := p.inst(sn)
	in.propose = &prop
	in.seen[digest] = prop
	for _, id := range p.Committee {
		if id != p.Self {
			ctx.Send(id, TagPropose, prop, prop.WireSize())
		}
	}
	p.recordEcho(ctx, sn, Echo{
		Round: p.Round, SN: sn, Digest: digest, Echoer: p.Self,
		Sig:     p.Scheme.Sign(p.Keys, sigMsg(TagEcho, p.Round, sn, digest, int32(p.Self))),
		Propose: prop,
	})
}

func (p *oracleProtocol) Handle(ctx *simnet.Context, msg simnet.Message) bool {
	switch msg.Tag {
	case TagPropose:
		prop, ok := msg.Payload.(Propose)
		if !ok {
			return true
		}
		p.onPropose(ctx, prop)
	case TagEcho:
		e, ok := msg.Payload.(Echo)
		if !ok {
			return true
		}
		p.onEcho(ctx, e)
	case TagConfirm:
		c, ok := msg.Payload.(Confirm)
		if !ok {
			return true
		}
		p.onConfirm(ctx, c)
	default:
		return false
	}
	return true
}

func (p *oracleProtocol) checkEquivocation(ctx *simnet.Context, sn uint64, prop Propose) bool {
	in := p.inst(sn)
	if _, ok := in.seen[prop.Digest]; ok {
		return in.equivocated
	}
	in.seen[prop.Digest] = prop
	if len(in.seen) > 1 && !in.equivocated {
		var a, b *Propose
		for _, pr := range in.seen {
			pr := pr
			if a == nil {
				a = &pr
			} else if pr.Digest != a.Digest {
				b = &pr
				break
			}
		}
		if a != nil && b != nil {
			in.equivocated = true
			if p.OnEquivocation != nil {
				p.OnEquivocation(ctx, Witness{A: *a, B: *b})
			}
			return true
		}
	}
	return in.equivocated
}

func (p *oracleProtocol) onPropose(ctx *simnet.Context, prop Propose) {
	if prop.Round != p.Round || prop.Leader != p.Leader {
		return
	}
	if p.Scheme.Verify(p.PKOf(p.Leader), prop.Sig, sigMsg(TagPropose, prop.Round, prop.SN, prop.Digest, -1)) != nil {
		return
	}
	if p.checkEquivocation(ctx, prop.SN, prop) {
		return
	}
	if p.ValidatePayload != nil && !p.ValidatePayload(prop.SN, prop.Payload) {
		return
	}
	in := p.inst(prop.SN)
	if in.propose != nil {
		return
	}
	in.propose = &prop
	echoSig := p.Scheme.Sign(p.Keys, sigMsg(TagEcho, prop.Round, prop.SN, prop.Digest, int32(p.Self)))
	echo := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Sig: echoSig, Propose: prop}
	size := echo.WireSize()
	for _, id := range p.Committee {
		if id != p.Self {
			ctx.Send(id, TagEcho, echo, size)
		}
	}
	p.recordEcho(ctx, prop.SN, echo)
	p.maybeConfirm(ctx, prop.SN)
}

func (p *oracleProtocol) onEcho(ctx *simnet.Context, e Echo) {
	if e.Round != p.Round {
		return
	}
	if p.Scheme.Verify(p.PKOf(e.Echoer), e.Sig, sigMsg(TagEcho, e.Round, e.SN, e.Digest, int32(e.Echoer))) != nil {
		return
	}
	pmsg := sigMsg(TagPropose, e.Propose.Round, e.Propose.SN, e.Propose.Digest, -1)
	if e.Propose.Round == p.Round && e.Propose.SN == e.SN &&
		p.Scheme.Verify(p.PKOf(p.Leader), e.Propose.Sig, pmsg) == nil {
		if p.checkEquivocation(ctx, e.SN, e.Propose) {
			return
		}
		if p.ValidatePayload != nil && !p.ValidatePayload(e.SN, e.Propose.Payload) {
			return
		}
		in := p.inst(e.SN)
		if in.propose == nil && p.Self != p.Leader {
			prop := e.Propose
			in.propose = &prop
			echoSig := p.Scheme.Sign(p.Keys, sigMsg(TagEcho, prop.Round, prop.SN, prop.Digest, int32(p.Self)))
			mine := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Sig: echoSig, Propose: prop}
			size := mine.WireSize()
			for _, id := range p.Committee {
				if id != p.Self {
					ctx.Send(id, TagEcho, mine, size)
				}
			}
			p.recordEcho(ctx, prop.SN, mine)
		}
	}
	p.recordEcho(ctx, e.SN, e)
	p.maybeConfirm(ctx, e.SN)
}

func (p *oracleProtocol) recordEcho(ctx *simnet.Context, sn uint64, e Echo) {
	in := p.inst(sn)
	if _, dup := in.echoDigests[e.Echoer]; dup {
		return
	}
	in.echoDigests[e.Echoer] = e.Digest
	in.echoSigs[e.Echoer] = e.Sig
}

func (p *oracleProtocol) maybeConfirm(ctx *simnet.Context, sn uint64) {
	in := p.inst(sn)
	if in.confirmSent || in.propose == nil || in.equivocated {
		return
	}
	d := in.propose.Digest
	votes := 0
	echoSigs := make(map[simnet.NodeID][]byte)
	for id, dig := range in.echoDigests {
		if dig == d {
			votes++
			echoSigs[id] = in.echoSigs[id]
		}
	}
	if !p.quorum(votes) {
		return
	}
	in.confirmSent = true
	in.accepted = true
	sig := p.Scheme.Sign(p.Keys, sigMsg(TagConfirm, p.Round, sn, d, int32(p.Self)))
	conf := Confirm{Round: p.Round, SN: sn, Digest: d, Confirmer: p.Self, Sig: sig, EchoSigs: echoSigs}
	if p.OnAccept != nil {
		p.OnAccept(ctx, sn, d, in.propose.Payload)
	}
	if p.Self == p.Leader {
		p.onConfirm(ctx, conf)
	} else {
		ctx.Send(p.Leader, TagConfirm, conf, conf.WireSize())
	}
}

func (p *oracleProtocol) onConfirm(ctx *simnet.Context, c Confirm) {
	if p.Self != p.Leader || c.Round != p.Round {
		return
	}
	if p.Scheme.Verify(p.PKOf(c.Confirmer), c.Sig, sigMsg(TagConfirm, c.Round, c.SN, c.Digest, int32(c.Confirmer))) != nil {
		return
	}
	in := p.inst(c.SN)
	if in.propose == nil || c.Digest != in.propose.Digest || in.decided {
		return
	}
	if _, dup := in.confirms[c.Confirmer]; dup {
		return
	}
	in.confirms[c.Confirmer] = c
	if !p.quorum(len(in.confirms)) {
		return
	}
	in.decided = true
	res := Result{Round: p.Round, SN: c.SN, Digest: c.Digest, Payload: in.propose.Payload}
	for _, conf := range in.confirms {
		res.Confirms = append(res.Confirms, conf)
	}
	sortConfirms(res.Confirms)
	if p.OnDecide != nil {
		p.OnDecide(ctx, res)
	}
}

func (p *oracleProtocol) Accepted(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.accepted
}

func (p *oracleProtocol) Decided(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.decided
}

// --- equivalence -----------------------------------------------------------

// endpoint is what the equivalence test drives: the production Protocol
// or the oracle.
type endpoint interface {
	Handle(ctx *simnet.Context, msg simnet.Message) bool
	Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, size int)
	Accepted(sn uint64) bool
	Decided(sn uint64) bool
}

// observation is everything an endpoint exposes after one delivery.
type observation struct {
	Sent      []simnet.Message
	Accepted  bool
	Decided   bool
	Decisions []Result
	// Witnesses holds each OnEquivocation firing as its sorted digest
	// pair: both implementations pick the pair's order by map iteration.
	Witnesses [][2]crypto.Digest
}

type recorder struct {
	decisions []Result
	witnesses [][2]crypto.Digest
}

func newEndpointConfig(scheme SignatureScheme, keys map[simnet.NodeID]crypto.KeyPair, members []simnet.NodeID, self simnet.NodeID, rec *recorder) *Protocol {
	return &Protocol{
		Round:     1,
		Self:      self,
		Leader:    members[0],
		Committee: members,
		Keys:      keys[self],
		PKOf:      func(n simnet.NodeID) crypto.PublicKey { return keys[n].PK },
		Scheme:    scheme,
		OnDecide:  func(ctx *simnet.Context, res Result) { rec.decisions = append(rec.decisions, res) },
		OnEquivocation: func(ctx *simnet.Context, w Witness) {
			pair := [2]crypto.Digest{w.A.Digest, w.B.Digest}
			sort.Slice(pair[:], func(i, j int) bool { return string(pair[i][:]) < string(pair[j][:]) })
			rec.witnesses = append(rec.witnesses, pair)
		},
	}
}

func observe(ep endpoint, rec *recorder, self simnet.NodeID, act func(ctx *simnet.Context)) observation {
	ctx := simnet.NewContext(self, 0)
	act(ctx)
	var o observation
	ctx.Effects(func(m simnet.Message) { o.Sent = append(o.Sent, m) }, func(simnet.Time, func(*simnet.Context)) {})
	o.Accepted, o.Decided = ep.Accepted(1), ep.Decided(1)
	o.Decisions = append(o.Decisions, rec.decisions...)
	o.Witnesses = append(o.Witnesses, rec.witnesses...)
	return o
}

func flipped(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0x80
	return out
}

// echoStream builds one randomized delivery schedule for `self`: direct
// proposals, echoes (some invalid, duplicated, or conflicting, some from
// a signer outside the committee), echoes carrying the proposal under a
// different signature, an equivocating leader's second proposal,
// stale-round traffic and, for a leader observer, confirms.
func echoStream(rng *rand.Rand, scheme SignatureScheme, keys map[simnet.NodeID]crypto.KeyPair, members []simnet.NodeID, outsider, self simnet.NodeID) []simnet.Message {
	leader := members[0]
	lk := keys[leader]
	dA, dB := crypto.HString("tally-A"), crypto.HString("tally-B")
	propA := BuildPropose(scheme, lk, leader, 1, 1, dA, "A", 8)
	propB := BuildPropose(scheme, lk, leader, 1, 1, dB, "B", 8)
	forgedA := propA
	forgedA.Sig = flipped(propA.Sig)
	equivocate := rng.Intn(3) == 0

	var msgs []simnet.Message
	add := func(from simnet.NodeID, tag string, payload any) {
		msgs = append(msgs, simnet.Message{From: from, To: self, Tag: tag, Payload: payload})
	}
	echo := func(from simnet.NodeID, prop Propose, digest crypto.Digest, round uint64) Echo {
		sig := scheme.Sign(keys[from], sigMsg(TagEcho, round, 1, digest, int32(from)))
		if rng.Intn(12) == 0 {
			sig = flipped(sig)
		}
		return Echo{Round: round, SN: 1, Digest: digest, Echoer: from, Sig: sig, Propose: prop}
	}
	if self != leader && rng.Intn(4) != 0 {
		add(leader, TagPropose, propA)
	}
	if equivocate && self != leader && rng.Intn(2) == 0 {
		add(leader, TagPropose, propB)
	}
	if rng.Intn(5) == 0 {
		add(leader, TagPropose, forgedA)
	}
	for _, from := range append(members[:len(members):len(members)], outsider) {
		if from == self || rng.Intn(6) == 0 {
			continue
		}
		prop, digest := propA, dA
		if equivocate && rng.Intn(3) == 0 {
			prop, digest = propB, dB
		}
		if digest == dA && rng.Intn(5) == 0 {
			prop = forgedA
		}
		e := echo(from, prop, digest, 1)
		add(from, TagEcho, e)
		switch rng.Intn(8) {
		case 0: // duplicate
			add(from, TagEcho, e)
		case 1: // the same echoer endorsing the other digest
			add(from, TagEcho, echo(from, propB, dB, 1))
		case 2: // stale round
			add(from, TagEcho, echo(from, propA, dA, 0))
		}
		if self == leader && rng.Intn(5) != 0 {
			c := Confirm{Round: 1, SN: 1, Digest: dA, Confirmer: from,
				Sig: scheme.Sign(keys[from], sigMsg(TagConfirm, 1, 1, dA, int32(from)))}
			add(from, TagConfirm, c)
			if rng.Intn(6) == 0 {
				add(from, TagConfirm, c)
			}
		}
	}
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	return msgs
}

// TestEchoTallyMatchesScanOracle drives the production Protocol and the
// scan-based oracle through the same randomized arrival orders and
// requires identical behaviour after every delivery: the messages sent
// (so the confirm fires at the same arrival and carries the same
// EchoSigs), Accepted, Decided, the decision certificate, and every
// OnEquivocation firing. In a third of the trials ValidatePayload
// rejects every proposal until a random delivery and accepts after it,
// like the protocol layer's checkInterPayload once the forwarded list
// arrives: a memoized verdict, or a proposal-signature memo that ignores
// the signature bytes, would then diverge from the oracle.
func TestEchoTallyMatchesScanOracle(t *testing.T) {
	const size = 7
	var confirms, decisions, equivocations int
	for trial := 0; trial < 600; trial++ {
		scheme := SignatureScheme(HashScheme{})
		if trial%10 == 0 {
			scheme = Ed25519Scheme{}
		}
		rng := rand.New(rand.NewSource(int64(trial)))
		keys := make(map[simnet.NodeID]crypto.KeyPair)
		members := make([]simnet.NodeID, size)
		for i := range members {
			members[i] = simnet.NodeID(i)
			keys[members[i]] = crypto.GenerateKeyPair(rng)
		}
		outsider := simnet.NodeID(size)
		keys[outsider] = crypto.GenerateKeyPair(rng)
		self := members[0]
		if trial%2 == 1 {
			self = members[1+rng.Intn(size-1)]
		}
		var recP, recO recorder
		prod := newEndpointConfig(scheme, keys, members, self, &recP)
		orc := &oracleProtocol{Protocol: newEndpointConfig(scheme, keys, members, self, &recO)}
		stream := echoStream(rng, scheme, keys, members, outsider, self)
		delivery := 0
		if trial%3 == 2 {
			open := rng.Intn(len(stream) + 1)
			validate := func(uint64, any) bool { return delivery >= open }
			prod.ValidatePayload, orc.ValidatePayload = validate, validate
		}
		step := func(label string, act func(ep endpoint) func(*simnet.Context)) {
			got := observe(prod, &recP, self, act(prod))
			want := observe(orc, &recO, self, act(orc))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (self %d), %s:\n got  %+v\n want %+v", trial, self, label, got, want)
			}
		}
		if self == members[0] {
			step("leader proposes", func(ep endpoint) func(*simnet.Context) {
				return func(ctx *simnet.Context) { ep.Propose(ctx, 1, crypto.HString("tally-A"), "A", 8) }
			})
		}
		for i, msg := range stream {
			delivery = i
			step(fmt.Sprintf("delivery %d (%s from %d)", i, msg.Tag, msg.From), func(ep endpoint) func(*simnet.Context) {
				return func(ctx *simnet.Context) { ep.Handle(ctx, msg) }
			})
		}
		if prod.Accepted(1) {
			confirms++
		}
		if prod.Decided(1) {
			decisions++
		}
		equivocations += len(recP.witnesses)
	}
	t.Logf("%d confirms, %d decisions, %d equivocations", confirms, decisions, equivocations)
	// The schedule generator must actually reach every outcome.
	if confirms == 0 || decisions == 0 || equivocations == 0 {
		t.Fatalf("weak coverage: %d confirms, %d decisions, %d equivocations", confirms, decisions, equivocations)
	}
}
