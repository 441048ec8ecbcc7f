package main

import (
	"fmt"
	"maps"
	"slices"

	"ppaassembler/internal/pregel"
	"ppaassembler/internal/transport"
)

// metricKind says how a per-layer metric aggregates over a traced run.
type metricKind int

const (
	// perPass metrics are measured on every traced pass; the run reports
	// their median.
	perPass metricKind = iota
	// count metrics are deterministic for an input: every traced pass over
	// the input must repeat them exactly, and the run reports their mean
	// over the run's inputs.
	count
	// perRun metrics are computed once from the whole run.
	perRun
)

type metricDef struct {
	name, unit string
	kind       metricKind
}

// endToEnd is the untraced run's metric set, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s", perRun},
	{"setup_s", "s", perRun},
	{"cpu_s", "s", perRun},
	{"peak_rss_mb", "MiB", perRun},
	{"alloc_mb", "MiB", perRun},
	{"genome_fraction_pct", "%", perRun},
	{"ng50_bp", "bp", perRun},
	{"scaffold_n50_bp", "bp", perRun},
}

// workflowOps are the ops of the canned assemble-and-scaffold pipeline.
var workflowOps = []string{"build", "label", "merge", "bubble", "rebuild", "link", "tiptrim", "scaffold"}

// perLayer is the traced run's metric set, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, op := range workflowOps {
		defs = append(defs,
			metricDef{"op." + op + ".wall_s", "s", perPass},
			metricDef{"op." + op + ".alloc_mb", "MiB", perPass})
	}
	return append(defs, []metricDef{
		{"mr.map.self_s", "s", perPass},
		{"mr.shuffle.self_s", "s", perPass},
		{"mr.reduce.self_s", "s", perPass},
		{"mr.jobs", "count", count},
		{"dbg.k1_distinct", "count", count},
		{"dbg.k1_kept", "count", count},
		{"pregel.compute.self_s", "s", perPass},
		{"pregel.shuffle.self_s", "s", perPass},
		{"pregel.barrier.self_s", "s", perPass},
		{"pregel.convert.self_s", "s", perPass},
		{"pregel.supersteps", "count", count},
		{"pregel.msgs_local", "count", count},
		{"pregel.msgs_remote", "count", count},
		{"ckpt.save.self_s", "s", perPass},
		{"ckpt.restore.self_s", "s", perPass},
		{"ckpt.store.save_s", "s", perPass},
		{"ckpt.saves", "count", count},
		{"ckpt.restores", "count", count},
		{"ckpt.bytes_written", "bytes", count},
		{"ckpt.bytes_restored", "bytes", count},
		{"transport.send_s", "s", perPass},
		{"transport.recv_s", "s", perPass},
		{"transport.barrier_s", "s", perPass},
		{"transport.frames_sent", "count", count},
		{"transport.bytes_sent", "bytes", count},
		{"transport.bytes_recv", "bytes", count},
		{"transport.wire_s", "s", perPass},
		{"transport.wire_over_model", "ratio", perPass},
		{"gc.cycles", "count", perPass},
		{"gc.cpu_s", "s", perPass},
		{"sched.latency_p99_ms", "ms", perPass},
		{"host.steal_s", "s", perRun},
		{"trace.overhead_s", "s", perRun},
		{"sim_s", "s", perPass},
		{"misassemblies", "count", perRun},
		{"failed_frac", "ratio", perRun},
		{"host.nproc", "count", perRun},
		{"host.gomaxprocs", "count", perRun},
	}...)
}()

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

// selfMetric maps an engine span (category/name) to the per-layer metric
// its self time adds to.
var selfMetric = map[string]string{
	"mr/map":                        "mr.map.self_s",
	"mr/shuffle":                    "mr.shuffle.self_s",
	"mr/reduce":                     "mr.reduce.self_s",
	"phase/compute":                 "pregel.compute.self_s",
	"phase/shuffle":                 "pregel.shuffle.self_s",
	"phase/barrier":                 "pregel.barrier.self_s",
	"pregel/convert":                "pregel.convert.self_s",
	"checkpoint/checkpoint.save":    "ckpt.save.self_s",
	"checkpoint/checkpoint.restore": "ckpt.restore.self_s",
}

// traceLedger accumulates the traced passes of a run. Each traced pass
// directly follows an untraced pass over the same input.
type traceLedger struct {
	walls     []float64
	overheads []float64 // traced wall minus the paired untraced wall
	gaps      []float64 // traced wall minus the sum of the op spans
	steal     float64
	perPass   map[string][]float64
}

func newTraceLedger() *traceLedger {
	return &traceLedger{perPass: map[string][]float64{}}
}

// tracedPass runs one traced pass over in, right after the untraced pass
// that produced untraced, and folds its layers into the ledger. Failures of
// the pass itself are counted by bench.attempt; the returned error reports
// a trace that is malformed or whose counts do not repeat.
func (tl *traceLedger) tracedPass(b *bench, in *input, untraced *passOut) error {
	c := &collector{}
	pr := &probes{}
	tp := b.transport()
	var c0, c1 transport.Counters
	if tp != nil {
		c0 = tp.Counters()
	}
	out := b.attempt(in, pr, c)
	if out == nil {
		return nil
	}
	if tp != nil {
		c1 = tp.Counters()
	}
	spans, err := c.spans()
	if err != nil {
		return err
	}
	assignSelf(spans)

	times := map[string]float64{}
	counts := map[string]float64{}
	var opSum float64
	for _, s := range spans {
		if s.op != "" {
			d := float64(s.end-s.start) / 1e9
			times["op."+s.op+".wall_s"] += d
			times["op."+s.op+".alloc_mb"] += float64(s.allocBytes) / (1 << 20)
			opSum += d
		}
		if name, ok := selfMetric[s.key()]; ok {
			times[name] += float64(s.self) / 1e9
		}
		switch s.key() {
		case "mr/mr":
			counts["mr.jobs"]++
		case "pregel/superstep":
			counts["pregel.supersteps"]++
		}
	}

	r := out.res
	counts["dbg.k1_distinct"] = float64(r.K1Distinct)
	counts["dbg.k1_kept"] = float64(r.K1Kept)
	counts["pregel.msgs_local"] = float64(r.LocalMessages)
	counts["pregel.msgs_remote"] = float64(r.RemoteMessages)
	counts["ckpt.saves"] = float64(r.CheckpointSaves)
	counts["ckpt.restores"] = float64(r.CheckpointRestores)
	counts["ckpt.bytes_written"] = float64(r.CheckpointBytesWritten)
	counts["ckpt.bytes_restored"] = float64(r.CheckpointBytesRestored)
	counts["transport.frames_sent"] = float64(c1.FramesSent - c0.FramesSent)
	counts["transport.bytes_sent"] = float64(c1.BytesSent - c0.BytesSent)
	counts["transport.bytes_recv"] = float64(c1.BytesRecv - c0.BytesRecv)

	times["ckpt.store.save_s"] = float64(pr.storeSave.Load()) / 1e9
	times["transport.send_s"] = float64(pr.tpSend.Load()) / 1e9
	times["transport.recv_s"] = float64(pr.tpRecv.Load()) / 1e9
	times["transport.barrier_s"] = float64(pr.tpBarrier.Load()) / 1e9
	wire := float64(c1.WireNs-c0.WireNs) / 1e9
	times["transport.wire_s"] = wire
	// The cost model's prediction for the same bytes: simulated, a
	// calibration ratio and never evidence of a gain.
	if model := float64(c1.BytesSent-c0.BytesSent+c1.BytesRecv-c0.BytesRecv) / pregel.DefaultCost().BytesPerSecond; model > 0 {
		times["transport.wire_over_model"] = wire / model
	}
	times["gc.cycles"] = out.after.gcCycles - out.before.gcCycles
	times["gc.cpu_s"] = out.after.gcCPU - out.before.gcCPU
	times["sched.latency_p99_ms"] = schedP99Ms(out.before.schedLat, out.after.schedLat)
	times["sim_s"] = r.SimSeconds // simulated cluster time, not a measurement

	if in.counts == nil {
		in.counts = counts
	} else if !maps.Equal(in.counts, counts) {
		for _, k := range slices.Sorted(maps.Keys(counts)) {
			if counts[k] != in.counts[k] {
				return fmt.Errorf("count %s = %v does not repeat the input's first traced pass (%v)", k, counts[k], in.counts[k])
			}
		}
	}
	for k, v := range times {
		tl.perPass[k] = append(tl.perPass[k], v)
	}
	// The op spans must account for the traced pass: what lies outside
	// them (sharding the reads, folding results) is well under 1% of it.
	if gap := out.wall - opSum; gap < 0 || gap > out.wall/100 {
		return fmt.Errorf("op spans sum to %.4fs of a %.4fs pass", opSum, out.wall)
	}
	tl.walls = append(tl.walls, out.wall)
	tl.overheads = append(tl.overheads, out.wall-untraced.wall)
	tl.gaps = append(tl.gaps, out.wall-opSum)
	tl.steal += out.stealSeconds
	return nil
}

// report fills the result with every per-layer metric.
func (tl *traceLedger) report(res *result, b *bench, host hostInfo) error {
	if len(tl.walls) == 0 {
		return fmt.Errorf("no traced pass succeeded")
	}
	overhead := median(tl.overheads)
	gap := median(tl.gaps)
	fmt.Fprintf(b.log, "perfbench: traced wall %.3fs, trace overhead %.4fs, wall not covered by op spans %.4fs\n",
		median(tl.walls), overhead, gap)

	var withCounts, checked int
	var misassemblies float64
	sums := map[string]float64{}
	for _, in := range b.inputs {
		if in.counts != nil {
			withCounts++
			for k, v := range in.counts {
				sums[k] += v
			}
		}
		if in.checked {
			checked++
			misassemblies += float64(in.qual.misassemblies)
		}
	}
	runLevel := map[string]float64{
		"host.steal_s":     host.StealS,
		"trace.overhead_s": overhead,
		"misassemblies":    misassemblies / float64(checked),
		"failed_frac":      float64(b.failed) / float64(b.attempted),
		"host.nproc":       float64(host.Nproc),
		"host.gomaxprocs":  float64(host.GOMAXPROCS),
	}
	for _, d := range perLayer {
		var v float64
		switch d.kind {
		case perPass:
			v = median(tl.perPass[d.name])
		case count:
			v = sums[d.name] / float64(withCounts)
		case perRun:
			v = runLevel[d.name]
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
	}
	return nil
}
