package simnet

// Adaptive is the executable plan of a reactive adversary: a schedule of
// crash windows, gray (mute) windows, and directed one-way cuts that a
// planner appends to at round boundaries, compiled down to the pure
// Fate/Down contract every other fault model obeys.
//
// The determinism argument: directives are appended only while the
// network is idle (the protocol engine re-plans between rounds, on the
// goroutine that drives the event loop), and every directive covers
// virtual times at or after the append point. Down therefore stays a pure
// function of (now, node) for every query the simulator can actually
// issue — the schedule for any already-reachable time never changes — and
// Fate reads the same immutable-once-visible data. Closing an open-ended
// window (CloseOpen) sets its end to the current idle-time tick, which
// only affects queries at later times, so re-evaluation is safe too. The
// model draws no randomness of its own; a planner wanting randomised
// targets consumes its own RNG before appending.
type Adaptive struct {
	crash map[NodeID][]Window  // Down: node is crashed inside any window
	mute  map[NodeID][]Window  // Fate: sends from the node are dropped (gray)
	cuts  map[NodeID][]cutRule // Fate: directed src→dst drops per sender
}

// cutRule is one directed cut: messages from the owning sender to any
// node in dst are dropped inside the window.
type cutRule struct {
	win Window
	dst map[NodeID]struct{}
}

// NewAdaptive returns an empty plan: no crashes, no mutes, no cuts —
// behaviourally NoFaults until the first directive is appended.
func NewAdaptive() *Adaptive {
	return &Adaptive{
		crash: make(map[NodeID][]Window),
		mute:  make(map[NodeID][]Window),
		cuts:  make(map[NodeID][]cutRule),
	}
}

// Crash schedules node down in [from, to) (to = 0: until CloseOpen or
// forever).
func (a *Adaptive) Crash(node NodeID, from, to Time) {
	a.crash[node] = append(a.crash[node], Window{From: from, To: to})
}

// Mute schedules a gray failure: in [from, to) every message node sends
// is dropped while it keeps receiving and its timers keep firing.
func (a *Adaptive) Mute(node NodeID, from, to Time) {
	a.mute[node] = append(a.mute[node], Window{From: from, To: to})
}

// Cut schedules a directed one-way cut: in [from, to) messages from src
// to any node in dst are dropped; every other direction is untouched.
func (a *Adaptive) Cut(src NodeID, dst []NodeID, from, to Time) {
	set := make(map[NodeID]struct{}, len(dst))
	for _, id := range dst {
		set[id] = struct{}{}
	}
	a.cuts[src] = append(a.cuts[src], cutRule{win: Window{From: from, To: to}, dst: set})
}

// CloseOpen ends every still-open directive (To = 0) at now — the re-plan
// boundary's "last round's plan expires here". Call only while the
// network is idle; queries at times before now are unaffected (the window
// covered them and still does), queries at or after now see the directive
// retired.
func (a *Adaptive) CloseOpen(now Time) {
	closeAll := func(ws []Window) {
		for i := range ws {
			if ws[i].To == 0 {
				ws[i].To = now
			}
		}
	}
	for _, ws := range a.crash {
		closeAll(ws)
	}
	for _, ws := range a.mute {
		closeAll(ws)
	}
	for _, rules := range a.cuts {
		for i := range rules {
			if rules[i].win.To == 0 {
				rules[i].win.To = now
			}
		}
	}
}

// inWindow reports whether now falls inside any of the windows.
func inWindow(ws []Window, now Time) bool {
	for _, w := range ws {
		if now >= w.From && (w.To == 0 || now < w.To) {
			return true
		}
	}
	return false
}

// Fate implements Faults: drop sends from muted nodes and sends crossing
// an active directed cut.
func (a *Adaptive) Fate(now Time, from, to NodeID, _ uint64, _ uint32) Fate {
	if inWindow(a.mute[from], now) {
		return Fate{Drop: true}
	}
	for _, r := range a.cuts[from] {
		if now >= r.win.From && (r.win.To == 0 || now < r.win.To) {
			if _, hit := r.dst[to]; hit {
				return Fate{Drop: true}
			}
		}
	}
	return Fate{}
}

// Down implements Faults: a pure window lookup over the crash schedule.
func (a *Adaptive) Down(now Time, node NodeID) bool {
	return inWindow(a.crash[node], now)
}
