package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/transport"
)

// collector is the benchmark's in-memory Tracer. It keeps every event of a
// traced pass and, at each workflow-op boundary, the process's cumulative
// heap allocation, so an op's allocation is measured from outside the op.
type collector struct {
	mu     sync.Mutex
	events []telemetry.Event
	allocs []uint64
}

func (c *collector) Emit(e telemetry.Event) {
	var alloc uint64
	if e.Cat == "workflow" && e.Name == "op" {
		alloc = heapAllocBytes()
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.allocs = append(c.allocs, alloc)
	c.mu.Unlock()
}

// span is one closed interval of the trace.
type span struct {
	cat, name string
	// op is the workflow op a "workflow/op" span times.
	op         string
	start, end int64
	allocBytes uint64
	// self is the span's duration minus the union of its children's
	// intervals, filled in by assignSelf.
	self int64
}

func (s span) key() string { return s.cat + "/" + s.name }

// spans pairs Begin and End events into intervals. An End closes the most
// recent open span of the same category and name (the telemetry contract);
// any span left open or closed twice is an error.
func (c *collector) spans() ([]span, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	type open struct {
		ev    telemetry.Event
		alloc uint64
	}
	stacks := map[string][]open{}
	var out []span
	for i, e := range c.events {
		k := e.Cat + "/" + e.Name
		switch e.Kind {
		case telemetry.KindBegin:
			stacks[k] = append(stacks[k], open{e, c.allocs[i]})
		case telemetry.KindEnd:
			st := stacks[k]
			if len(st) == 0 {
				return nil, fmt.Errorf("trace: End %s without a Begin", k)
			}
			b := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			s := span{cat: e.Cat, name: e.Name, start: b.ev.WallNs, end: e.WallNs}
			for _, a := range b.ev.Args {
				if a.Key == "op" && a.IsStr {
					s.op = a.Str
				}
			}
			if s.op != "" {
				s.allocBytes = c.allocs[i] - b.alloc
			}
			out = append(out, s)
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("trace: %d %s spans never ended", len(st), k)
		}
	}
	return out, nil
}

// nestRank orders spans that share both endpoints (possible at clock
// resolution): the outer layer sorts first and so becomes the parent.
var nestRank = map[string]int{
	"workflow/plan": 0, "workflow/op": 1,
	"pregel/job": 2, "mr/mr": 2, "pregel/convert": 2,
	"pregel/superstep": 3, "mr/map": 3, "mr/shuffle": 3, "mr/reduce": 3,
	"phase/overlap": 4,
	"phase/compute": 5, "phase/shuffle": 5, "phase/barrier": 5,
	"checkpoint/checkpoint.save": 6, "checkpoint/checkpoint.restore": 6,
	"transport/send": 6, "transport/drain": 6, "transport/barrier": 6, "transport/connect": 6,
}

func rankOf(s span) int {
	if r, ok := nestRank[s.key()]; ok {
		return r
	}
	return len(nestRank)
}

// assignSelf computes every span's self time by interval containment: a
// span's parent is the innermost span whose interval contains it, whatever
// order the two were emitted in (the engine emits each superstep's phase
// spans after the transport spans they contain). Self time is the duration
// minus the union of the children's intervals, so children that overlap
// one another are not subtracted twice.
func assignSelf(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		if x.end != y.end {
			return x.end > y.end
		}
		return rankOf(x) < rankOf(y)
	})
	children := make([][]int, len(spans))
	var stack []int
	for _, i := range order {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.start <= spans[i].start && spans[i].end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			children[p] = append(children[p], i)
		}
		stack = append(stack, i)
	}
	for i := range spans {
		// Children were appended in start order; sweep their union.
		var covered, reach int64
		reach = spans[i].start
		for _, c := range children[i] {
			s, e := max(spans[c].start, reach), spans[c].end
			if e > s {
				covered += e - s
				reach = e
			}
		}
		spans[i].self = spans[i].end - spans[i].start - covered
	}
}

// probes are the benchmark-side wrappers around the checkpoint store and
// the transport: they time every call into those layers.
type probes struct {
	storeSave                 atomic.Int64
	tpSend, tpRecv, tpBarrier atomic.Int64
}

type timedStore struct {
	pregel.Checkpointer
	p *probes
}

func (s timedStore) Save(job string, step int, data []byte) error {
	t0 := time.Now()
	err := s.Checkpointer.Save(job, step, data)
	s.p.storeSave.Add(int64(time.Since(t0)))
	return err
}

func (p *probes) wrapStore(c pregel.Checkpointer) pregel.Checkpointer {
	return timedStore{Checkpointer: c, p: p}
}

type timedTransport struct {
	transport.Transport
	p *probes
}

func (t timedTransport) SendLane(step, src, dst int, payload []byte) error {
	t0 := time.Now()
	err := t.Transport.SendLane(step, src, dst, payload)
	t.p.tpSend.Add(int64(time.Since(t0)))
	return err
}

func (t timedTransport) RecvLane(step, src, dst int) ([]byte, error) {
	t0 := time.Now()
	b, err := t.Transport.RecvLane(step, src, dst)
	t.p.tpRecv.Add(int64(time.Since(t0)))
	return b, err
}

func (t timedTransport) Barrier(step int, payload []byte) error {
	t0 := time.Now()
	err := t.Transport.Barrier(step, payload)
	t.p.tpBarrier.Add(int64(time.Since(t0)))
	return err
}

func (p *probes) wrapTransport(t transport.Transport) transport.Transport {
	return timedTransport{Transport: t, p: p}
}
