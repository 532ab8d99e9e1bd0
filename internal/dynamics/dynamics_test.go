package dynamics

import (
	"reflect"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// bootApp counts Init calls so restarts are observable.
type bootApp struct{ inits int }

func (a *bootApp) Init(*netsim.NodeAPI)   { a.inits++ }
func (a *bootApp) Receive(*netsim.Packet) {}
func (a *bootApp) Snoop(*netsim.Packet)   {}
func (a *bootApp) Timer(int)              {}

// shifter records the sequence of shift values it was set to.
type shifter struct{ got []float64 }

func (s *shifter) SetShift(f float64)     { s.got = append(s.got, f) }
func (s *shifter) SetHotCenter(f float64) { s.got = append(s.got, f) }

func testNetwork(n int) (*netsim.Simulator, *netsim.Network, []*bootApp) {
	topo := netsim.NewTopology(n)
	topo.Pos = make([]netsim.Point, n)
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	apps := make([]*bootApp, n)
	for i := range apps {
		apps[i] = &bootApp{}
		net.Attach(netsim.NodeID(i), apps[i])
	}
	net.Start()
	return sim, net, apps
}

func TestAttachAppliesEventsInOrder(t *testing.T) {
	sim, net, apps := testNetwork(3)
	data, query := &shifter{}, &shifter{}
	var marks []string
	s := Script{Events: []Event{
		{At: 3 * netsim.Second, Kind: NodeUp, Node: 2},
		{At: netsim.Second, Kind: NodeDown, Node: 2},
		{At: 2 * netsim.Second, Kind: DataShift, Value: 0.25},
		{At: 2 * netsim.Second, Kind: QueryShift, Value: 0.75},
	}}
	s.Attach(sim, Targets{Net: net, Data: data, Query: query,
		Observer: func(e Event) { marks = append(marks, e.Kind.String()) }})

	sim.Run(1500 * netsim.Millisecond)
	if !net.Dead(2) {
		t.Fatal("node 2 should be dead after the down event")
	}
	sim.Run(4 * netsim.Second)
	if net.Dead(2) {
		t.Fatal("node 2 should be restarted")
	}
	if apps[2].inits != 2 {
		t.Fatalf("node 2 inits = %d, want 2 (start + restart)", apps[2].inits)
	}
	if !reflect.DeepEqual(data.got, []float64{0.25}) {
		t.Fatalf("data shifts = %v", data.got)
	}
	if !reflect.DeepEqual(query.got, []float64{0.75}) {
		t.Fatalf("query shifts = %v", query.got)
	}
	want := []string{"node-down", "data-shift", "query-shift", "node-up"}
	if !reflect.DeepEqual(marks, want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
}

func TestAttachSkipsEventsWithoutTargets(t *testing.T) {
	sim, net, _ := testNetwork(2)
	var marks []string
	s := Script{Events: []Event{{At: netsim.Second, Kind: DataShift, Value: 0.5}}}
	s.Attach(sim, Targets{Net: net,
		Observer: func(e Event) { marks = append(marks, e.Kind.String()) }})
	sim.Run(2 * netsim.Second)
	if len(marks) != 0 {
		t.Fatalf("unapplied events must not be marked, got %v", marks)
	}
}

func TestNetLossComposesWithBase(t *testing.T) {
	sim, net, _ := testNetwork(2)
	s := Script{Events: []Event{
		{At: netsim.Second, Kind: NetLoss, Value: 0.5},
		{At: 2 * netsim.Second, Kind: NetLoss, Value: 0},
	}}
	s.Attach(sim, Targets{Net: net, LossBase: 0.8})
	sim.Run(1500 * netsim.Millisecond)
	// No direct accessor for link scale; rely on Validate + no panic,
	// and check the restore event runs.
	sim.Run(3 * netsim.Second)
}

func TestChurnPairsAndBounds(t *testing.T) {
	s := Churn(10, netsim.Minute, 5*netsim.Minute, netsim.Minute, 30*netsim.Second, 0.2, 42)
	if len(s.Events) == 0 || len(s.Events)%2 != 0 {
		t.Fatalf("churn events = %d, want a positive even count", len(s.Events))
	}
	down := make(map[netsim.NodeID]netsim.Time)
	for _, e := range s.Events {
		if e.Node <= 0 || e.Node >= 10 {
			t.Fatalf("churn touched node %d", e.Node)
		}
		switch e.Kind {
		case NodeDown:
			if up, ok := down[e.Node]; ok && up > e.At {
				t.Fatalf("node %d re-killed at %v while still down until %v", e.Node, e.At, up)
			}
			down[e.Node] = e.At + 30*netsim.Second
		case NodeUp:
			if want := down[e.Node]; want != e.At {
				t.Fatalf("node %d up at %v, want %v", e.Node, e.At, want)
			}
		default:
			t.Fatalf("unexpected kind %v", e.Kind)
		}
	}
	// Deterministic for a seed; different for another.
	again := Churn(10, netsim.Minute, 5*netsim.Minute, netsim.Minute, 30*netsim.Second, 0.2, 42)
	if !reflect.DeepEqual(s, again) {
		t.Fatal("churn script not deterministic for a fixed seed")
	}
	other := Churn(10, netsim.Minute, 5*netsim.Minute, netsim.Minute, 30*netsim.Second, 0.2, 43)
	if reflect.DeepEqual(s, other) {
		t.Fatal("churn script identical across seeds")
	}
}

func TestDataDriftRamp(t *testing.T) {
	s := DataDrift(10*netsim.Minute, 14*netsim.Minute, 4, 0.4)
	if len(s.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(s.Events))
	}
	last := s.Events[3]
	if last.At != 14*netsim.Minute || last.Value != 0.4 {
		t.Fatalf("final step = %+v", last)
	}
	for i, e := range s.Events {
		if e.Kind != DataShift {
			t.Fatalf("event %d kind = %v", i, e.Kind)
		}
		if i > 0 && e.Value <= s.Events[i-1].Value {
			t.Fatalf("ramp not increasing at %d", i)
		}
	}
	// steps=1 collapses to one abrupt shift.
	one := DataDrift(10*netsim.Minute, 10*netsim.Minute, 1, 0.4)
	if len(one.Events) != 1 || one.Events[0].Value != 0.4 {
		t.Fatalf("abrupt shift = %+v", one.Events)
	}
}

func TestValidate(t *testing.T) {
	dur := 10 * netsim.Minute
	bo := func(at netsim.Time, k Kind, lo, hi netsim.NodeID) Event {
		return Event{At: at, Kind: k, Src: lo, Dst: hi}
	}
	cut := func(at netsim.Time, k Kind, b netsim.NodeID) Event { return Event{At: at, Kind: k, Node: b} }
	m := netsim.Minute
	cases := []struct {
		name string
		ev   Event
		more []Event // further events of a multi-event script
		ok   bool
	}{
		{"good-down", Event{At: netsim.Minute, Kind: NodeDown, Node: 3}, nil, true},
		{"base-kill", Event{At: netsim.Minute, Kind: NodeDown, Node: 0}, nil, false},
		{"node-oob", Event{At: netsim.Minute, Kind: NodeUp, Node: 9}, nil, false},
		{"late", Event{At: dur + 1, Kind: NodeDown, Node: 1}, nil, false},
		{"negative-time", Event{At: -1, Kind: NodeDown, Node: 1}, nil, false},
		{"loss-oob", Event{At: 0, Kind: NetLoss, Value: 1}, nil, false},
		{"link-self", Event{At: 0, Kind: LinkLoss, Src: 2, Dst: 2, Value: 0.1}, nil, false},
		{"shift-oob", Event{At: 0, Kind: DataShift, Value: 1.5}, nil, false},
		{"query-oob", Event{At: 0, Kind: QueryShift, Value: -0.1}, nil, false},
		{"good-query", Event{At: 0, Kind: QueryShift, Value: 0.9}, nil, true},
		{"blackouts-back-to-back", bo(m, BlackoutStart, 1, 3), []Event{bo(2*m, BlackoutEnd, 1, 3),
			bo(2*m, BlackoutStart, 4, 6), bo(3*m, BlackoutEnd, 4, 6)}, true},
		{"blackouts-overlap", bo(m, BlackoutStart, 1, 3), []Event{bo(3*m, BlackoutEnd, 1, 3),
			bo(2*m, BlackoutStart, 4, 6), bo(4*m, BlackoutEnd, 4, 6)}, false},
		{"blackout-reopened", bo(m, BlackoutStart, 1, 3), []Event{bo(2*m, BlackoutStart, 1, 3)}, false},
		{"blackout-end-unopened", bo(m, BlackoutEnd, 1, 3), nil, false},
		{"blackout-end-other-stripe", bo(m, BlackoutStart, 1, 3), []Event{bo(2*m, BlackoutEnd, 1, 4)}, false},
		{"blackout-end-before-start", bo(2*m, BlackoutStart, 1, 3), []Event{bo(m, BlackoutEnd, 1, 3)}, false},
		{"blackout-open-to-run-end", bo(m, BlackoutStart, 1, 3), nil, true},
		{"partitions-sequential", cut(m, PartitionStart, 4), []Event{cut(2*m, PartitionEnd, 4),
			cut(3*m, PartitionStart, 5), cut(4*m, PartitionEnd, 5)}, true},
		{"partitions-overlap", cut(m, PartitionStart, 4), []Event{cut(2*m, PartitionStart, 5),
			cut(3*m, PartitionEnd, 4), cut(4*m, PartitionEnd, 5)}, false},
		{"partition-end-unopened", cut(m, PartitionEnd, 4), nil, false},
		{"partition-end-other-boundary", cut(m, PartitionStart, 4), []Event{cut(2*m, PartitionEnd, 5)}, false},
		{"blackout-and-partition-overlap", bo(m, BlackoutStart, 1, 3), []Event{cut(2*m, PartitionStart, 4),
			bo(3*m, BlackoutEnd, 1, 3), cut(4*m, PartitionEnd, 4)}, true},
	}
	for _, c := range cases {
		s := Script{Events: append([]Event{c.ev}, c.more...)}
		err := s.Validate(9, dur)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
	var nilScript *Script
	if err := nilScript.Validate(9, dur); err != nil {
		t.Fatalf("nil script must validate: %v", err)
	}
	if !nilScript.Empty() || nilScript.HasData() || nilScript.HasChurn() {
		t.Fatal("nil script predicates must be false")
	}
}

func TestStandardScript(t *testing.T) {
	s := Standard(20, 5*netsim.Minute, 25*netsim.Minute, 0.1, 0.4, 7)
	if !s.HasChurn() || !s.HasData() {
		t.Fatal("standard script with both knobs must churn and drift")
	}
	if err := s.Validate(20, 25*netsim.Minute); err != nil {
		t.Fatalf("standard script invalid: %v", err)
	}
	if s := Standard(20, 5*netsim.Minute, 25*netsim.Minute, 0, 0, 7); !s.Empty() {
		t.Fatal("zero knobs must yield an empty script")
	}
	// Short runs: every generated reboot must still land inside the
	// run (the last churn round is pulled forward if needed).
	for _, dur := range []netsim.Time{5 * netsim.Minute, 3 * netsim.Minute, 90 * netsim.Second} {
		s := Standard(16, netsim.Minute, dur, 0.15, 0, 9)
		if err := s.Validate(16, dur); err != nil {
			t.Fatalf("standard script for %v run invalid: %v", dur, err)
		}
	}
}
