package main

import (
	"testing"

	"ppaassembler/internal/telemetry"
)

// emitSpan appends a Begin/End pair with the given wall times.
func emitSpan(c *collector, cat, name string, begin, end int64, args ...telemetry.Arg) {
	c.Emit(telemetry.Event{Kind: telemetry.KindBegin, Cat: cat, Name: name, WallNs: begin, Args: args})
	c.Emit(telemetry.Event{Kind: telemetry.KindEnd, Cat: cat, Name: name, WallNs: end})
}

// TestSelfTimeByContainment feeds a stream in the engine's emission order:
// a superstep's transport send/drain spans are emitted before the phase
// spans that contain them. Self times must follow the intervals, not the
// order of emission.
func TestSelfTimeByContainment(t *testing.T) {
	c := &collector{}
	c.Emit(telemetry.Event{Kind: telemetry.KindBegin, Cat: "workflow", Name: "op", WallNs: 0,
		Args: []telemetry.Arg{telemetry.S("op", "label")}})
	// Superstep 0 over the wire: send and drain land inside shuffle.
	emitSpan(c, "transport", "send", 20, 30)
	emitSpan(c, "transport", "drain", 30, 45)
	c.Emit(telemetry.Event{Kind: telemetry.KindBegin, Cat: "pregel", Name: "superstep", WallNs: 10})
	emitSpan(c, "phase", "compute", 10, 20)
	emitSpan(c, "phase", "shuffle", 20, 50)
	emitSpan(c, "phase", "barrier", 50, 55)
	c.Emit(telemetry.Event{Kind: telemetry.KindEnd, Cat: "pregel", Name: "superstep", WallNs: 55})
	// The transport barrier follows the superstep span, inside the op.
	emitSpan(c, "transport", "barrier", 55, 58)
	// Superstep 1 whose compute fills it at clock resolution: both share
	// their endpoints, and the superstep must still be the parent.
	c.Emit(telemetry.Event{Kind: telemetry.KindBegin, Cat: "pregel", Name: "superstep", WallNs: 60})
	emitSpan(c, "phase", "compute", 60, 70)
	emitSpan(c, "phase", "shuffle", 70, 70)
	emitSpan(c, "phase", "barrier", 70, 70)
	c.Emit(telemetry.Event{Kind: telemetry.KindEnd, Cat: "pregel", Name: "superstep", WallNs: 70})
	c.Emit(telemetry.Event{Kind: telemetry.KindEnd, Cat: "workflow", Name: "op", WallNs: 100})

	spans, err := c.spans()
	if err != nil {
		t.Fatal(err)
	}
	assignSelf(spans)
	got := map[string]int64{}
	for _, s := range spans {
		got[s.key()] += s.self
	}
	want := map[string]int64{
		"workflow/op":       100 - 45 - 3 - 10, // minus both supersteps and the barrier
		"pregel/superstep":  0,
		"phase/compute":     10 + 10,
		"phase/shuffle":     30 - 10 - 15,
		"phase/barrier":     5,
		"transport/send":    10,
		"transport/drain":   15,
		"transport/barrier": 3,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

// TestSelfTimeOverlappingChildren checks that children running in
// parallel are subtracted as the union of their intervals.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{cat: "x", name: "parent", start: 0, end: 100},
		{cat: "x", name: "a", start: 10, end: 50},
		{cat: "x", name: "b", start: 30, end: 70},
	}
	assignSelf(spans)
	if spans[0].self != 40 {
		t.Errorf("parent self = %d, want 40", spans[0].self)
	}
}

func TestUnbalancedTraceIsAnError(t *testing.T) {
	c := &collector{}
	c.Emit(telemetry.Event{Kind: telemetry.KindBegin, Cat: "phase", Name: "compute", WallNs: 1})
	if _, err := c.spans(); err == nil {
		t.Error("a span that never ended was accepted")
	}
	c = &collector{}
	c.Emit(telemetry.Event{Kind: telemetry.KindEnd, Cat: "phase", Name: "compute", WallNs: 1})
	if _, err := c.spans(); err == nil {
		t.Error("an End without a Begin was accepted")
	}
}
