package consensus

import (
	"bytes"
	"fmt"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// Message tags used on the wire.
const (
	TagPropose = "CONS_PROPOSE"
	TagEcho    = "CONS_ECHO"
	TagConfirm = "CONS_CONFIRM"
)

// Propose is the leader's proposal for instance (Round, SN).
type Propose struct {
	Round   uint64
	SN      uint64
	Digest  crypto.Digest
	Payload any
	Size    int // abstract payload size for traffic accounting
	Leader  simnet.NodeID
	Sig     []byte
}

// Echo is a member's endorsement of a digest; it retransmits the leader's
// signed proposal so members that missed the direct PROPOSE can adopt it.
type Echo struct {
	Round   uint64
	SN      uint64
	Digest  crypto.Digest
	Echoer  simnet.NodeID
	Sig     []byte
	Propose Propose
}

// Confirm is a member's final endorsement, carrying its echo evidence.
type Confirm struct {
	Round     uint64
	SN        uint64
	Digest    crypto.Digest
	Confirmer simnet.NodeID
	Sig       []byte
	EchoSigs  map[simnet.NodeID][]byte
}

// Witness proves leader equivocation: two proposals signed by the same
// leader for the same (round, sn) with different digests.
type Witness struct {
	A, B Propose
}

// Valid reports whether the witness is self-consistent (same instance,
// different digests) and both signatures verify under pk. Per Claim 4,
// a witness that fails Valid cannot frame an honest leader.
func (w Witness) Valid(scheme SignatureScheme, pk crypto.PublicKey) bool {
	if w.A.Round != w.B.Round || w.A.SN != w.B.SN || w.A.Digest == w.B.Digest {
		return false
	}
	for _, p := range []Propose{w.A, w.B} {
		if scheme.Verify(pk, p.Sig, sigMsg(TagPropose, p.Round, p.SN, p.Digest, -1)) != nil {
			return false
		}
	}
	return true
}

// Result is the leader-side decision: a certificate of >C/2 confirmations.
type Result struct {
	Round    uint64
	SN       uint64
	Digest   crypto.Digest
	Payload  any
	Confirms []Confirm
}

// CertSize returns the certificate's approximate wire size.
func (r Result) CertSize(scheme SignatureScheme) int {
	return len(r.Confirms)*(scheme.SigSize()+16) + crypto.HashSize
}

// VerifyCert checks a decision certificate against the committee roster:
// every confirm must be from a distinct committee member with a valid
// signature on the decided digest, and there must be more than C/2 of
// them. Third parties (the referee committee, remote leaders) use this to
// accept results without having participated.
func VerifyCert(scheme SignatureScheme, res Result, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	members := make(map[simnet.NodeID]bool, len(committee))
	for _, id := range committee {
		members[id] = true
	}
	seen := make(map[simnet.NodeID]bool)
	for _, c := range res.Confirms {
		if c.Round != res.Round || c.SN != res.SN || c.Digest != res.Digest {
			return fmt.Errorf("consensus: confirm for wrong instance")
		}
		if !members[c.Confirmer] {
			return fmt.Errorf("consensus: confirmer %d not in committee", c.Confirmer)
		}
		if seen[c.Confirmer] {
			return fmt.Errorf("consensus: duplicate confirmer %d", c.Confirmer)
		}
		seen[c.Confirmer] = true
		if err := scheme.Verify(pkOf(c.Confirmer), c.Sig, sigMsg(TagConfirm, c.Round, c.SN, c.Digest, int32(c.Confirmer))); err != nil {
			return fmt.Errorf("consensus: confirm signature from %d: %w", c.Confirmer, err)
		}
	}
	if 2*len(seen) <= len(committee) {
		return fmt.Errorf("consensus: %d confirms is not a majority of %d", len(seen), len(committee))
	}
	return nil
}

// instance holds per-(round, sn) state on one node.
type instance struct {
	propose *Propose
	// echoes holds the first echo recorded from each committee member, by
	// roster position (allocated with the first echo); outsiders holds
	// echoes from non-members. tally counts both per digest, so the quorum
	// check is O(1) per arrival.
	echoes      []echoVote
	outsiders   map[simnet.NodeID]echoVote
	tally       []digestVotes
	confirmSent bool
	accepted    bool
	// leader side
	confirms map[simnet.NodeID]Confirm
	decided  bool
	// equivocation evidence: the distinct leader-signed proposals seen,
	// in arrival order
	seen        []Propose
	equivocated bool
	// proposals whose leader signature already verified; the echo
	// retransmissions of one proposal are checked once.
	verified []signedDigest
}

// echoVote is one member's recorded echo.
type echoVote struct {
	digest crypto.Digest
	sig    []byte
	set    bool
}

// digestVotes counts the recorded echoes for one digest. An honest
// leader's instance sees one digest, an equivocating leader's two.
type digestVotes struct {
	digest crypto.Digest
	votes  int
}

// signedDigest is a leader-signed proposal digest for one instance.
type signedDigest struct {
	digest crypto.Digest
	sig    []byte
}

// Protocol is one node's Algorithm 3 endpoint for a single committee and
// round. The protocol layer creates one per node per round and feeds it
// every CONS_* message.
type Protocol struct {
	Round     uint64
	Self      simnet.NodeID
	Leader    simnet.NodeID
	Committee []simnet.NodeID // all members, including the leader; read-only
	Keys      crypto.KeyPair
	PKOf      func(simnet.NodeID) crypto.PublicKey
	Scheme    SignatureScheme

	// OnDecide fires on the leader when a quorum of confirms is reached.
	OnDecide func(ctx *simnet.Context, res Result)
	// OnAccept fires on a member when it confirms a digest (safe point:
	// a majority echoed the same leader-signed proposal).
	OnAccept func(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any)
	// OnEquivocation fires (once per instance) when this node holds proof
	// the leader signed two different proposals for one instance.
	OnEquivocation func(ctx *simnet.Context, w Witness)
	// ValidatePayload, when set, vets a proposal's payload before this
	// node echoes it (the referee committee uses it to check
	// semi-commitment validity, §IV-B step 2). Returning false makes the
	// node withhold its echo, so an invalid proposal cannot gather a
	// majority in an honest-majority committee.
	ValidatePayload func(sn uint64, payload any) bool

	insts map[uint64]*instance
	pos   map[simnet.NodeID]int // Committee positions, built on first echo
}

func (p *Protocol) inst(sn uint64) *instance {
	if p.insts == nil {
		p.insts = make(map[uint64]*instance)
	}
	in := p.insts[sn]
	if in == nil {
		in = &instance{}
		p.insts[sn] = in
	}
	return in
}

// position returns id's index in Committee (its first, if listed twice).
func (p *Protocol) position(id simnet.NodeID) (int, bool) {
	if p.pos == nil {
		p.pos = make(map[simnet.NodeID]int, len(p.Committee))
		for i := len(p.Committee) - 1; i >= 0; i-- {
			p.pos[p.Committee[i]] = i
		}
	}
	i, ok := p.pos[id]
	return i, ok
}

func (p *Protocol) quorum(v int) bool { return 2*v > len(p.Committee) }

// payloadDigest binds the payload to the instance. Payloads carry their own
// canonical digest via the Digestable interface; otherwise the digest must
// be supplied at Propose time.
type Digestable interface {
	ConsensusDigest() crypto.Digest
}

// BuildPropose constructs a signed proposal; exported so adversarial
// leaders can craft conflicting proposals in tests and attack scenarios.
func BuildPropose(scheme SignatureScheme, kp crypto.KeyPair, leader simnet.NodeID, round, sn uint64, digest crypto.Digest, payload any, size int) Propose {
	sig := scheme.Sign(kp, sigMsg(TagPropose, round, sn, digest, -1))
	return Propose{Round: round, SN: sn, Digest: digest, Payload: payload, Size: size, Leader: leader, Sig: sig}
}

// Propose starts an instance as the leader, broadcasting to every other
// committee member.
func (p *Protocol) Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, size int) {
	prop := BuildPropose(p.Scheme, p.Keys, p.Self, p.Round, sn, digest, payload, size)
	in := p.inst(sn)
	in.propose = &prop
	in.seen = append(in.seen, prop)
	p.broadcast(ctx, TagPropose, prop, prop.WireSize())
	// The leader implicitly echoes and confirms its own proposal.
	p.recordEcho(in, p.Self, digest, p.Scheme.Sign(p.Keys, sigMsg(TagEcho, p.Round, sn, digest, int32(p.Self))))
}

// SendRaw delivers an arbitrary pre-built proposal to a subset of members —
// the equivocation primitive used by adversarial leaders.
func (p *Protocol) SendRaw(ctx *simnet.Context, prop Propose, to []simnet.NodeID) {
	var payload any = prop
	size := prop.WireSize()
	for _, id := range to {
		if id != p.Self {
			ctx.Send(id, TagPropose, payload, size)
		}
	}
}

// broadcast sends msg to every other committee member. The payload is
// boxed once, not once per destination.
func (p *Protocol) broadcast(ctx *simnet.Context, tag string, msg any, size int) {
	for _, id := range p.Committee {
		if id != p.Self {
			ctx.Send(id, tag, msg, size)
		}
	}
}

// Handle consumes a consensus message; it returns true when the tag
// belongs to this package.
func (p *Protocol) Handle(ctx *simnet.Context, msg simnet.Message) bool {
	switch msg.Tag {
	case TagPropose:
		prop, ok := msg.Payload.(Propose)
		if !ok {
			return true
		}
		p.onPropose(ctx, &prop)
	case TagEcho:
		e, ok := msg.Payload.(Echo)
		if !ok {
			return true
		}
		p.onEcho(ctx, &e)
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

func (p *Protocol) checkEquivocation(ctx *simnet.Context, in *instance, prop *Propose) bool {
	for i := range in.seen {
		if in.seen[i].Digest == prop.Digest {
			return in.equivocated
		}
	}
	in.seen = append(in.seen, *prop)
	if len(in.seen) > 1 && !in.equivocated {
		// Two distinct digests signed by the leader: the first seen and
		// this one form the witness.
		in.equivocated = true
		if p.OnEquivocation != nil {
			p.OnEquivocation(ctx, Witness{A: in.seen[0], B: *prop})
		}
		return true
	}
	return in.equivocated
}

// leaderSigned reports whether prop carries a valid leader signature for
// its (round, sn, digest), returning the instance, which it creates only
// for a valid proposal. A (digest, sig) pair that verified once for the
// instance is not verified again: the check is a pure function of the
// pair, and every echo retransmits the proposal it endorses.
func (p *Protocol) leaderSigned(prop *Propose) (*instance, bool) {
	in := p.insts[prop.SN]
	if in != nil {
		for _, v := range in.verified {
			if v.digest == prop.Digest && bytes.Equal(v.sig, prop.Sig) {
				return in, true
			}
		}
	}
	if p.Scheme.Verify(p.PKOf(p.Leader), prop.Sig, sigMsg(TagPropose, prop.Round, prop.SN, prop.Digest, -1)) != nil {
		return nil, false
	}
	if in == nil {
		in = p.inst(prop.SN)
	}
	in.verified = append(in.verified, signedDigest{prop.Digest, prop.Sig})
	return in, true
}

func (p *Protocol) onPropose(ctx *simnet.Context, prop *Propose) {
	if prop.Round != p.Round || prop.Leader != p.Leader {
		return
	}
	in, ok := p.leaderSigned(prop)
	if !ok {
		return
	}
	if p.checkEquivocation(ctx, in, prop) {
		return // stop participating once the leader is caught
	}
	if p.ValidatePayload != nil && !p.ValidatePayload(prop.SN, prop.Payload) {
		return
	}
	if in.propose != nil {
		return // duplicate
	}
	p.adopt(ctx, in, prop)
	p.maybeConfirm(ctx, in, prop.SN)
}

// adopt takes prop as the instance's proposal and echoes it to the whole
// committee, retransmitting the proposal.
func (p *Protocol) adopt(ctx *simnet.Context, in *instance, prop *Propose) {
	in.propose = prop
	echoSig := p.Scheme.Sign(p.Keys, sigMsg(TagEcho, prop.Round, prop.SN, prop.Digest, int32(p.Self)))
	echo := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Sig: echoSig, Propose: *prop}
	p.broadcast(ctx, TagEcho, echo, echo.WireSize())
	p.recordEcho(in, p.Self, prop.Digest, echoSig)
}

func (p *Protocol) onEcho(ctx *simnet.Context, e *Echo) {
	if e.Round != p.Round {
		return
	}
	if p.Scheme.Verify(p.PKOf(e.Echoer), e.Sig, sigMsg(TagEcho, e.Round, e.SN, e.Digest, int32(e.Echoer))) != nil {
		return
	}
	// Adopt/inspect the retransmitted proposal: it is leader-signed, so it
	// both substitutes for a missed PROPOSE and feeds equivocation checks.
	if e.Propose.Round == p.Round && e.Propose.SN == e.SN {
		if in, ok := p.leaderSigned(&e.Propose); ok {
			if p.checkEquivocation(ctx, in, &e.Propose) {
				return
			}
			if p.ValidatePayload != nil && !p.ValidatePayload(e.SN, e.Propose.Payload) {
				return
			}
			if in.propose == nil && p.Self != p.Leader {
				// Echo ourselves now that we hold the proposal.
				prop := e.Propose
				p.adopt(ctx, in, &prop)
			}
		}
	}
	in := p.inst(e.SN)
	p.recordEcho(in, e.Echoer, e.Digest, e.Sig)
	p.maybeConfirm(ctx, in, e.SN)
}

// recordEcho records the first echo from each echoer and counts it
// toward its digest's tally.
func (p *Protocol) recordEcho(in *instance, echoer simnet.NodeID, digest crypto.Digest, sig []byte) {
	vote := echoVote{digest, sig, true}
	if i, ok := p.position(echoer); ok {
		if in.echoes == nil {
			in.echoes = make([]echoVote, len(p.Committee))
		}
		if in.echoes[i].set {
			return
		}
		in.echoes[i] = vote
	} else {
		if _, dup := in.outsiders[echoer]; dup {
			return
		}
		if in.outsiders == nil {
			in.outsiders = make(map[simnet.NodeID]echoVote)
		}
		in.outsiders[echoer] = vote
	}
	for i := range in.tally {
		if in.tally[i].digest == digest {
			in.tally[i].votes++
			return
		}
	}
	in.tally = append(in.tally, digestVotes{digest, 1})
}

// votes returns the recorded echo count for d.
func (in *instance) votes(d crypto.Digest) int {
	for _, t := range in.tally {
		if t.digest == d {
			return t.votes
		}
	}
	return 0
}

func (p *Protocol) maybeConfirm(ctx *simnet.Context, in *instance, sn uint64) {
	if in.confirmSent || in.propose == nil || in.equivocated {
		return
	}
	d := in.propose.Digest
	votes := in.votes(d)
	if !p.quorum(votes) {
		return
	}
	echoSigs := make(map[simnet.NodeID][]byte, votes)
	for i, v := range in.echoes {
		if v.set && v.digest == d {
			echoSigs[p.Committee[i]] = v.sig
		}
	}
	for id, v := range in.outsiders {
		if v.digest == d {
			echoSigs[id] = v.sig
		}
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

func (p *Protocol) onConfirm(ctx *simnet.Context, c Confirm) {
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
	if in.confirms == nil {
		in.confirms = make(map[simnet.NodeID]Confirm)
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

// HasProposal reports whether this node has seen any proposal for sn —
// the partial set's 2Γ liveness check during inter-committee consensus
// (Lemma 7).
func (p *Protocol) HasProposal(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.propose != nil
}

// Accepted reports whether this node confirmed instance sn (test hook).
func (p *Protocol) Accepted(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.accepted
}

// Decided reports whether the leader reached a decision for sn.
func (p *Protocol) Decided(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.decided
}

func sortConfirms(cs []Confirm) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Confirmer < cs[j-1].Confirmer; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
