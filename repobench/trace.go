package main

import "scoop/internal/netsim"

// Core timer IDs, as defined in internal/core/config.go. A timer ID
// outside 1..timerRel lands in slotOtherTimer, which must stay at zero:
// that pins this table to core's.
const (
	timerSample   = 1
	timerSummary  = 2
	timerTree     = 3
	timerMapping  = 4
	timerQuery    = 5
	timerBatch    = 6
	timerRemap    = 7
	timerReply    = 8
	timerAggFlush = 9
	timerRel      = 10
)

// Accumulator slots: slot i in 1..timerRel is Timer(i), slot 0 any
// other timer ID, and the callback kinds follow.
const slotOtherTimer = 0

const (
	slotInit = timerRel + 1 + iota
	slotNodeRecv
	slotBaseRecv
	slotSnoop
	numSlots
)

// tracer times every app callback from outside the protocol code, into
// fixed-index accumulators: a callback costs two clock reads, a slot
// index and a heap-depth read, with no map lookup, string or
// allocation.
type tracer struct {
	sim   *netsim.Simulator
	ns    [numSlots]int64
	calls [numSlots]int64
	// ns and calls when the event loop started, so the loop's share
	// excludes the Init calls Network.Start made.
	nsAtLoop, callsAtLoop [numSlots]int64

	pendingMax int // high-water of Simulator.Pending, sampled per callback

	issueNs   int64 // inside Base.IssueQuery / IssueAgg
	dynEvents int64 // dynamics events applied

	tx, dropsCollision, dropsQueue, dropsRetries int64
}

func (t *tracer) add(slot int, start int64) {
	t.ns[slot] += mono() - start
	t.calls[slot]++
	if p := t.sim.Pending(); p > t.pendingMax {
		t.pendingMax = p
	}
}

func (t *tracer) markLoop() { t.nsAtLoop, t.callsAtLoop = t.ns, t.calls }

// loopCallbacks returns the time spent in, and the number of, the
// callbacks the event loop made.
func (t *tracer) loopCallbacks() (ns, calls int64) {
	for i := range t.ns {
		ns += t.ns[i] - t.nsAtLoop[i]
		calls += t.calls[i] - t.callsAtLoop[i]
	}
	return ns, calls
}

func (t *tracer) wrap(app netsim.App, base bool) netsim.App {
	recv := slotNodeRecv
	if base {
		recv = slotBaseRecv
	}
	return &timedApp{app: app, t: t, recv: recv}
}

// timedApp is a netsim.App that forwards to app and times each call.
type timedApp struct {
	app  netsim.App
	t    *tracer
	recv int
}

func (a *timedApp) Init(api *netsim.NodeAPI) {
	s := mono()
	a.app.Init(api)
	a.t.add(slotInit, s)
}

func (a *timedApp) Receive(p *netsim.Packet) {
	s := mono()
	a.app.Receive(p)
	a.t.add(a.recv, s)
}

func (a *timedApp) Snoop(p *netsim.Packet) {
	s := mono()
	a.app.Snoop(p)
	a.t.add(slotSnoop, s)
}

func (a *timedApp) Timer(id int) {
	slot := slotOtherTimer
	if id >= 1 && id <= timerRel {
		slot = id
	}
	s := mono()
	a.app.Timer(id)
	a.t.add(slot, s)
}
