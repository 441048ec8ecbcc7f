package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/genome"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/quality"
	"ppaassembler/internal/readsim"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/transport"
)

// Settings shared by every workload: the paired-end library of the golden
// workload, the paper's k-mer length at this scale, and one engine worker
// per CPU of the two-CPU host the bounds were set on.
const (
	workers    = 2
	kmer       = 21
	readLen    = 100
	repeatLen  = 300
	subRate    = 0.001
	insertMean = 650
	insertSD   = 55
	// gapTol is the scaffold gap tolerance, two insert-size s.d.s.
	gapTol = 2 * insertSD
)

// workload is one benchmark scenario: the shape of the generated genome and
// reads, the assembler configuration it runs under, and the output floors a
// pass must meet to count as correct.
type workload struct {
	name      string
	genomeLen int
	repeats   int
	coverage  float64
	labeler   core.Labeler
	parallel  bool
	// tcp shuffles over in-process TCP lane depots instead of memory.
	tcp bool
	// ckptEvery > 0 checkpoints to an in-memory store every N supersteps.
	ckptEvery int
	// faults is a pregel.ParseFaultPlan schedule injected into every pass.
	faults string

	// minGenomeFracPct is the genome-fraction floor every input must meet;
	// any misassembly fails the check too.
	minGenomeFracPct float64
}

var workloads = []workload{
	{
		name: "paired-lr", genomeLen: 200_000, repeats: 12, coverage: 20,
		labeler: core.LabelerLR, parallel: true,
		minGenomeFracPct: 95,
	},
	{
		name: "sv-tcp-ckpt", genomeLen: 200_000, repeats: 12, coverage: 20,
		labeler: core.LabelerSV, parallel: true,
		tcp: true, ckptEvery: 5, faults: "60:1",
		minGenomeFracPct: 95,
	},
	{
		name: "highcov-seq", genomeLen: 60_000, repeats: 4, coverage: 60,
		labeler: core.LabelerLR, parallel: false,
		minGenomeFracPct: 95,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// smoke shrinks the workload tenfold for the smoke test, keeping every
// mechanism (repeats, scaffolding, transport, checkpoint and fault) live.
// Contig ends and the 500 bp contig floor weigh more on a small genome, so
// the genome-fraction floor is lower.
func (w workload) smoke() workload {
	w.genomeLen /= 10
	w.repeats = (w.repeats + 3) / 4
	w.minGenomeFracPct = 85
	w.faults = ""
	if w.ckptEvery > 0 {
		w.faults = "30:1"
	}
	return w
}

// input is one generated data set: a reference and paired reads drawn from
// it, plus the reference output of its first pass once checked.
type input struct {
	ref   dna.Seq
	reads []string
	pairs []scaffold.Pair

	checked bool
	digest  [sha256.Size]byte
	qual    qualityReport
	// counts are the deterministic per-layer counts of the first traced
	// pass; later traced passes must repeat them exactly.
	counts map[string]float64
}

type qualityReport struct {
	genomeFracPct float64
	ng50          int
	misassemblies int
	scaffoldN50   int
}

// genomeSeed fixes the references: input i of every run assembles the same
// genome, the way an assembler benchmark resequences a fixed organism.
// Only the reads are drawn from the run's seed, so a seed changes the
// sampling and sequencing errors but not where the repeats lie, which is
// what contig and scaffold lengths mostly depend on.
const genomeSeed = 1009

// generate draws input number i of the run seeded with seed: reference i
// of the workload, resequenced with reads drawn from seed.
func (w workload) generate(seed int64, i int) (*input, error) {
	ref, err := genome.Generate(genome.Spec{
		Name: w.name, Length: w.genomeLen, Repeats: w.repeats, RepeatLen: repeatLen, Seed: genomeSeed + int64(i),
	})
	if err != nil {
		return nil, err
	}
	sim, err := readsim.SimulatePairs(ref, readsim.PairProfile{
		Profile:    readsim.Profile{ReadLen: readLen, Coverage: w.coverage, SubRate: subRate, Seed: seed*inputsPerRun + int64(i)},
		InsertMean: insertMean, InsertSD: insertSD,
	})
	if err != nil {
		return nil, err
	}
	in := &input{ref: ref, reads: readsim.Interleave(sim), pairs: make([]scaffold.Pair, len(sim))}
	for j, p := range sim {
		in.pairs[j] = scaffold.Pair{R1: p.R1, R2: p.R2}
	}
	return in, nil
}

// depots is the in-process TCP topology of a tcp workload: one lane depot
// per worker on an ephemeral localhost port and the coordinator's dialed
// transport (one connection per depot).
type depots struct {
	servers []*transport.WorkerServer
	done    []chan struct{}
	tp      *transport.TCP
}

func startDepots() (*depots, error) {
	d := &depots{}
	peers := make([]string, workers)
	for w := 0; w < workers; w++ {
		srv := &transport.WorkerServer{Worker: w}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve() // returns once Close shuts the listener
		}()
		d.servers = append(d.servers, srv)
		d.done = append(d.done, done)
		peers[w] = addr
	}
	tp, err := transport.DialTCP(transport.TCPOptions{Peers: peers})
	if err == nil {
		err = tp.Connect()
	}
	if err != nil {
		if tp != nil {
			_ = tp.Close()
		}
		d.close()
		return nil, err
	}
	d.tp = tp
	return d, nil
}

// close shuts the transport and every depot and waits for each depot's
// accept loop to return.
func (d *depots) close() {
	if d == nil {
		return
	}
	if d.tp != nil {
		_ = d.tp.Close()
	}
	for i, srv := range d.servers {
		_ = srv.Close()
		<-d.done[i]
	}
}

// passOut is everything one pass produced and measured.
type passOut struct {
	wall, cpu     float64
	allocBytes    float64
	stealSeconds  float64
	before, after hostReading
	res           *core.Result
	contigs       []dna.Seq
	digest        [sha256.Size]byte
	scafRecs      []fastx.Record
}

// pass assembles and scaffolds one input and times it. The timed window is
// reads in memory to contigs plus scaffolds; the output digest and quality
// evaluation happen after it.
func (w workload) pass(in *input, tp transport.Transport, pr *probes, tracer telemetry.Tracer) (*passOut, error) {
	opt := core.DefaultOptions(workers)
	opt.K = kmer
	opt.Labeler = w.labeler
	opt.Parallel = w.parallel
	opt.Tracer = tracer
	// Every pass, traced or not, goes through the timing wrappers, so both
	// kinds run the same store and transport code.
	if tp != nil {
		opt.Transport = pr.wrapTransport(tp)
	}
	if w.ckptEvery > 0 {
		opt.CheckpointEvery = w.ckptEvery
		opt.Checkpointer = pr.wrapStore(pregel.NewMemCheckpointer())
		plan, err := pregel.ParseFaultPlan(w.faults)
		if err != nil {
			return nil, err
		}
		opt.Faults = plan
	}

	// Start every pass from a collected heap so no pass pays for the
	// garbage of the one before it.
	runtime.GC()
	before := readHost()
	t0 := time.Now()
	res, err := core.Assemble(pregel.ShardSlice(in.reads, workers), opt)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	sres, scontigs, err := core.ScaffoldContigs(res, opt, in.pairs, scaffold.Options{
		InsertMean: insertMean, InsertSD: insertSD,
	})
	if err != nil {
		return nil, fmt.Errorf("scaffold: %w", err)
	}
	wall := time.Since(t0).Seconds()
	after := readHost()

	out := &passOut{
		wall: wall, cpu: after.cpu - before.cpu,
		allocBytes:   after.allocBytes - before.allocBytes,
		stealSeconds: after.steal - before.steal,
		before:       before, after: after,
		res:      res,
		scafRecs: scaffold.Records(scontigs, sres.Scaffolds),
	}
	recs := make([]fastx.Record, len(res.Contigs))
	out.contigs = make([]dna.Seq, len(res.Contigs))
	for i, c := range res.Contigs {
		out.contigs[i] = c.Node.Seq
		recs[i] = fastx.Record{
			Name: fmt.Sprintf("contig_%d length=%d cov=%d", i+1, c.Len(), c.Node.Cov),
			Seq:  c.Node.Seq.String(),
		}
	}
	h := sha256.New()
	if err := fastx.WriteFasta(h, recs, 70); err != nil {
		return nil, err
	}
	copy(out.digest[:], h.Sum(nil))
	return out, nil
}

// evaluate scores a pass's output against its input's reference.
func evaluate(in *input, out *passOut) qualityReport {
	q := quality.Evaluate(out.contigs, in.ref, quality.MinContigLen)
	parts := make([]quality.ScaffoldParts, len(out.scafRecs))
	for i, r := range out.scafRecs {
		parts[i] = quality.ParseScaffold(r.Seq)
	}
	s := quality.EvaluateScaffolds(parts, in.ref, quality.MinContigLen, gapTol)
	return qualityReport{
		genomeFracPct: q.GenomeFraction, ng50: q.NG50,
		misassemblies: q.Misassemblies, scaffoldN50: s.ScaffoldN50,
	}
}

// check verifies a pass's output. The first pass over an input fixes its
// digest and must meet the workload's quality floors; every later pass over
// the same input, traced or not, must reproduce the digest exactly.
func (b *bench) check(in *input, out *passOut) error {
	// The checkpoint workload must save, and with a fault planned restore
	// and replay, on every pass.
	if b.w.ckptEvery > 0 && out.res.CheckpointSaves == 0 {
		return fmt.Errorf("no checkpoint was saved")
	}
	if b.w.faults != "" && out.res.CheckpointRestores == 0 {
		return fmt.Errorf("the planned fault %q restored no checkpoint", b.w.faults)
	}
	if in.checked {
		if out.digest != in.digest {
			return fmt.Errorf("contig FASTA digest %x differs from the input's first pass %x", out.digest[:6], in.digest[:6])
		}
		return nil
	}
	q := evaluate(in, out)
	if q.genomeFracPct < b.w.minGenomeFracPct {
		return fmt.Errorf("genome fraction %.3f%% below the floor %.1f%%", q.genomeFracPct, b.w.minGenomeFracPct)
	}
	if q.misassemblies > 0 {
		return fmt.Errorf("%d misassemblies", q.misassemblies)
	}
	in.checked, in.digest, in.qual = true, out.digest, q
	fmt.Fprintf(b.log, "perfbench: input checked: genome fraction %.3f%%, NG50 %d, %d misassemblies, scaffold N50 %d, digest %x\n",
		q.genomeFracPct, q.ng50, q.misassemblies, q.scaffoldN50, out.digest[:6])
	return nil
}
