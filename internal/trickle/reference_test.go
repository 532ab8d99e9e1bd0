package trickle

import (
	"sort"

	"scoop/internal/netsim"
)

// refTrickle is the earlier map-plus-sort implementation of Trickle,
// kept verbatim (renamed, minus its lint directive; scooplint skips
// test files) as the reference TestMatchesReference checks the
// key-sorted slice against. It holds every key it has ever seen and
// sorts all of them on every fire; retired items stay in the map.

type itemState struct {
	tau     netsim.Time
	heard   int // consistent transmissions heard this interval
	fireAt  netsim.Time
	endAt   netsim.Time
	fired   bool // sent (or suppressed) this interval already
	rounds  int
	retired bool
}

// refTrickle multiplexes any number of per-item Trickle timers onto a
// single NodeAPI timer.
type refTrickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    func(Key)
	items   map[Key]*itemState
}

// newRef creates a refTrickle instance. send is invoked from the timer
// context whenever an item's transmission is due and not suppressed.
// The owner must route the NodeAPI timer with timerID to OnTimer.
func newRef(api *netsim.NodeAPI, timerID int, cfg Config, send func(Key)) *refTrickle {
	if cfg.K <= 0 || cfg.TauLow <= 0 || cfg.TauHigh < cfg.TauLow {
		panic("trickle: invalid config")
	}
	return &refTrickle{
		api:     api,
		cfg:     cfg,
		timerID: timerID,
		send:    send,
		items:   make(map[Key]*itemState),
	}
}

// Add starts (or restarts) dissemination of key at the fast interval.
func (t *refTrickle) Add(key Key) {
	st := &itemState{}
	t.items[key] = st
	t.startInterval(st, t.cfg.TauLow)
	t.rearm()
}

// Remove stops dissemination of key (e.g. the chunk belongs to a
// superseded storage index).
func (t *refTrickle) Remove(key Key) {
	delete(t.items, key)
	t.rearm()
}

// Has reports whether key is currently under dissemination.
func (t *refTrickle) Has(key Key) bool {
	_, ok := t.items[key]
	return ok
}

// Len reports the number of items under dissemination.
func (t *refTrickle) Len() int { return len(t.items) }

// Heard records a consistent transmission of key overheard from a
// neighbor, feeding suppression.
func (t *refTrickle) Heard(key Key) {
	if st, ok := t.items[key]; ok {
		st.heard++
	}
}

// Reset drops key's interval back to TauLow, used when an
// inconsistency is detected (a neighbor has older data).
func (t *refTrickle) Reset(key Key) {
	if st, ok := t.items[key]; ok {
		st.rounds = 0
		st.retired = false
		t.startInterval(st, t.cfg.TauLow)
		t.rearm()
	}
}

func (t *refTrickle) startInterval(st *itemState, tau netsim.Time) {
	if tau > t.cfg.TauHigh {
		tau = t.cfg.TauHigh
	}
	st.tau = tau
	st.heard = 0
	st.fired = false
	now := t.api.Now()
	// Fire at a uniform point in the second half of the interval.
	half := tau / 2
	st.fireAt = now + half + netsim.Time(t.api.RandIntn(int(half)+1))
	st.endAt = now + tau
}

// rearm schedules the shared timer for the earliest pending deadline.
func (t *refTrickle) rearm() {
	var next netsim.Time = -1
	now := t.api.Now()
	for _, st := range t.items {
		if st.retired {
			continue
		}
		d := st.fireAt
		if st.fired {
			d = st.endAt
		}
		if next < 0 || d < next {
			next = d
		}
	}
	if next < 0 {
		t.api.CancelTimer(t.timerID)
		return
	}
	delay := next - now
	if delay < 1 {
		delay = 1
	}
	t.api.SetTimer(t.timerID, delay)
}

// OnTimer advances all items whose deadlines have passed; the owner
// must call it when the timer with the configured ID fires. Items are
// processed in key order: interval restarts draw from the shared
// random stream, so iteration order must be deterministic for
// simulations to be reproducible.
func (t *refTrickle) OnTimer() {
	now := t.api.Now()
	keys := make([]Key, 0, len(t.items))
	for key := range t.items {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var due []Key
	for _, key := range keys {
		st := t.items[key]
		if st.retired {
			continue
		}
		if !st.fired && now >= st.fireAt {
			st.fired = true
			if st.heard < t.cfg.K {
				due = append(due, key)
			}
		}
		if now >= st.endAt {
			st.rounds++
			if t.cfg.MaxRounds > 0 && st.rounds >= t.cfg.MaxRounds {
				st.retired = true
				continue
			}
			t.startInterval(st, st.tau*2)
		}
	}
	t.rearm()
	// Send after rearming so a send callback that mutates the item set
	// (Add/Remove) sees a consistent timer.
	for _, key := range due {
		if _, ok := t.items[key]; ok {
			t.send(key)
		}
	}
}
