// Package trickle implements the Trickle gossip protocol (Levis et
// al., NSDI'04) that Scoop uses to disseminate storage-index chunks
// and, in a modified selective form, query packets (paper §5.3, §5.5).
//
// Each item under dissemination has its own Trickle timer: during an
// interval of length tau the node picks a random instant in the second
// half of the interval and broadcasts the item there unless it has
// already heard the same item at least K times this interval
// (suppression). At the end of each interval tau doubles, up to
// TauHigh; hearing an inconsistency resets tau to TauLow so new data
// spreads fast.
//
// The package is transport-agnostic: the owner supplies a Send
// callback that actually broadcasts the item (and may itself decline,
// as Scoop's bitmap-filtered query re-broadcast does).
package trickle

import (
	"slices"

	"scoop/internal/netsim"
)

// Key identifies one item under dissemination. Owners encode their own
// structure (e.g. index-id<<16 | chunk-no).
type Key uint64

// Config tunes Trickle. The zero value is unusable; use DefaultConfig.
type Config struct {
	TauLow  netsim.Time // initial/reset interval
	TauHigh netsim.Time // interval cap
	K       int         // redundancy constant (suppression threshold)
	// MaxRounds, when >0, retires an item after that many intervals.
	// Scoop retires query gossip quickly but keeps mapping chunks
	// gossiping slowly until superseded.
	MaxRounds int
}

// DefaultConfig returns the Trickle parameters used in the
// experiments: fast initial spread, one-minute steady state.
func DefaultConfig() Config {
	return Config{
		TauLow:    500 * netsim.Millisecond,
		TauHigh:   60 * netsim.Second,
		K:         1,
		MaxRounds: 0,
	}
}

// item is one key under dissemination together with its timer state.
type item struct {
	key     Key
	tau     netsim.Time
	heard   int // consistent transmissions heard this interval
	fireAt  netsim.Time
	endAt   netsim.Time
	fired   bool // sent (or suppressed) this interval already
	rounds  int
	retired bool // reached MaxRounds; dropped at the end of this OnTimer
}

// Trickle multiplexes any number of per-item Trickle timers onto a
// single NodeAPI timer. It holds only the items still gossiping, by
// value, in one slice sorted by key: a timer fire costs O(live items)
// and allocates nothing, and key order is the deterministic iteration
// order OnTimer's random draws need.
type Trickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    func(Key)
	items   []item // ascending key
	due     []Key  // OnTimer scratch, reused across fires
}

// New creates a Trickle instance. send is invoked from the timer
// context whenever an item's transmission is due and not suppressed.
// The owner must route the NodeAPI timer with timerID to OnTimer.
func New(api *netsim.NodeAPI, timerID int, cfg Config, send func(Key)) *Trickle {
	if cfg.K <= 0 || cfg.TauLow <= 0 || cfg.TauHigh < cfg.TauLow {
		panic("trickle: invalid config")
	}
	return &Trickle{api: api, cfg: cfg, timerID: timerID, send: send}
}

// find returns key's index in items, or the index it would be
// inserted at, and whether it is present.
func (t *Trickle) find(key Key) (int, bool) {
	lo, hi := 0, len(t.items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.items[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.items) && t.items[lo].key == key
}

// Add starts (or restarts) dissemination of key at the fast interval.
// Re-adding a held key is how an owner reacts to an inconsistency (a
// neighbor has older data): the item, retired or not, gossips fast
// again.
func (t *Trickle) Add(key Key) {
	i, ok := t.find(key)
	if !ok {
		t.items = slices.Insert(t.items, i, item{})
	}
	t.items[i] = item{key: key}
	t.startInterval(&t.items[i], t.cfg.TauLow)
	t.rearm()
}

// Remove stops dissemination of key (e.g. the chunk belongs to a
// superseded storage index).
func (t *Trickle) Remove(key Key) {
	if i, ok := t.find(key); ok {
		t.items = slices.Delete(t.items, i, i+1)
	}
	t.rearm()
}

// Heard records a consistent transmission of key overheard from a
// neighbor, feeding suppression.
func (t *Trickle) Heard(key Key) {
	if i, ok := t.find(key); ok {
		t.items[i].heard++
	}
}

func (t *Trickle) startInterval(it *item, tau netsim.Time) {
	if tau > t.cfg.TauHigh {
		tau = t.cfg.TauHigh
	}
	it.tau = tau
	it.heard = 0
	it.fired = false
	now := t.api.Now()
	// Fire at a uniform point in the second half of the interval.
	half := tau / 2
	it.fireAt = now + half + netsim.Time(t.api.RandIntn(int(half)+1))
	it.endAt = now + tau
}

// rearm schedules the shared timer for the earliest pending deadline.
func (t *Trickle) rearm() {
	var next netsim.Time = -1
	now := t.api.Now()
	for i := range t.items {
		it := &t.items[i]
		if it.retired {
			continue
		}
		d := it.fireAt
		if it.fired {
			d = it.endAt
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
// simulations to be reproducible. An item that reaches MaxRounds is
// still sent if it came due in this pass, then dropped.
func (t *Trickle) OnTimer() {
	now := t.api.Now()
	t.due = t.due[:0]
	for i := range t.items {
		it := &t.items[i]
		if !it.fired && now >= it.fireAt {
			it.fired = true
			if it.heard < t.cfg.K {
				t.due = append(t.due, it.key)
			}
		}
		if now >= it.endAt {
			it.rounds++
			if t.cfg.MaxRounds > 0 && it.rounds >= t.cfg.MaxRounds {
				it.retired = true
				continue
			}
			t.startInterval(it, it.tau*2)
		}
	}
	t.rearm()
	// Send after rearming so a send callback that mutates the item set
	// (Add/Remove) sees a consistent timer.
	for _, key := range t.due {
		if _, ok := t.find(key); ok {
			t.send(key)
		}
	}
	t.items = slices.DeleteFunc(t.items, func(it item) bool { return it.retired })
}
