// Command ppa-assembler runs the full PPA-assembler workflow ①②③④⑤⑥②③ over
// a FASTQ (or plain-text, one read per line) input and writes the assembled
// contigs as FASTA. With -scaffold it appends the paired-end scaffolding
// stage ⑦: the input is then read as interleaved pairs (R1, R2, R1, R2, ...,
// as written by readsim -paired), and ordered, oriented, N-gapped scaffolds
// are written alongside the contigs.
//
// Usage:
//
//	ppa-assembler -in reads.fastq -out contigs.fasta [flags]
//	ppa-assembler -in pairs.fastq -out contigs.fasta -scaffold scaffolds.fasta [-insert 500]
//
// Flags mirror the paper's parameters: -k (k-mer length), -theta
// ((k+1)-mer coverage threshold), -tip (tip-length threshold, paper: 80),
// -editdist (bubble edit-distance threshold, paper: 5), -workers (logical
// Pregel workers), -labeler (lr or sv), -rounds (1 or 2). FASTQ/FASTA
// inputs may be gzip-compressed (.fastq.gz, .fa.gz, ...).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ppaassembler/internal/core"
	"ppaassembler/internal/dna"
	"ppaassembler/internal/fastx"
	"ppaassembler/internal/pregel"
	"ppaassembler/internal/scaffold"
	"ppaassembler/internal/shardio"
)

// cliOpts carries every flag so run stays testable.
type cliOpts struct {
	in, out     string
	k           int
	theta       uint32
	tip         int
	editDist    int
	workers     int
	parallel    bool
	partitioner string
	repartition string
	labeler     string
	rounds      int
	minLen      int
	gfa         string
	quiet       bool

	scaffoldOut string
	insert      float64
	insertSD    float64
	minSupport  int
	scafMinLen  int

	checkpoint string
	ckptEvery  int
	ckptDelta  bool
	ckptFsync  bool
	ckptVerify bool
	faultPlan  string
	resume     bool
	overlap    bool

	workflow string

	transport   string
	peers       string
	serveWorker int
	listen      string

	trace       string
	traceFormat string
	metricsOut  string
	cpuProfile  string
	memProfile  string
}

func main() {
	var o cliOpts
	var theta uint
	flag.StringVar(&o.in, "in", "", "input reads: FASTQ/FASTA file (optionally .gz), one-read-per-line text file, or a shardio store directory")
	flag.StringVar(&o.out, "out", "contigs.fasta", "output FASTA path (\"-\" for stdout)")
	flag.IntVar(&o.k, "k", 21, "k-mer length (odd, <= 31)")
	flag.UintVar(&theta, "theta", 1, "drop (k+1)-mers with coverage <= theta")
	flag.IntVar(&o.tip, "tip", 80, "tip-length threshold")
	flag.IntVar(&o.editDist, "editdist", 5, "bubble edit-distance threshold")
	flag.IntVar(&o.workers, "workers", 4, "logical Pregel workers")
	flag.BoolVar(&o.parallel, "parallel", false, "run workers on goroutines (multi-core; output is identical to sequential mode)")
	flag.BoolVar(&o.overlap, "overlap", false, "with -parallel, overlap message delivery with compute instead of a global barrier (output is identical either way)")
	flag.StringVar(&o.partitioner, "partitioner", "hash", "vertex placement strategy: hash (scatter), range (contiguous k-mer ID spans), minimizer (co-locate DBG-adjacent k-mers) or affinity (re-place contigs next to their graph neighborhood); output is identical for all of them, only simulated network locality changes")
	flag.StringVar(&o.repartition, "repartition", "", "online adaptive repartitioning: migrate hot vertices to the worker they receive the most traffic from, at a superstep cadence, e.g. \"4\" or \"every=4,window=2,maxmove=128\" (output is identical to static placement, only network locality changes)")
	flag.StringVar(&o.labeler, "labeler", "lr", "contig labeling algorithm: lr or sv")
	flag.IntVar(&o.rounds, "rounds", 2, "labeling+merging rounds (1 = no error correction)")
	flag.IntVar(&o.minLen, "minlen", 0, "omit contigs shorter than this from the output")
	flag.StringVar(&o.gfa, "gfa", "", "also write the assembly graph in GFA v1 to this path")
	flag.BoolVar(&o.quiet, "q", false, "suppress the run summary")
	flag.StringVar(&o.scaffoldOut, "scaffold", "", "scaffold the contigs with the (interleaved paired) input reads and write scaffold FASTA here")
	flag.Float64Var(&o.insert, "insert", 0, "paired-end mean insert size (0 = estimate from the data)")
	flag.Float64Var(&o.insertSD, "insertsd", 0, "insert-size standard deviation (0 = estimate)")
	flag.IntVar(&o.minSupport, "minsupport", 3, "minimum read pairs supporting a scaffold link")
	flag.IntVar(&o.scafMinLen, "scafminlen", 500, "exclude shorter contigs from scaffold linking")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint directory for fault tolerance (empty with -ckpt-every set = in-memory checkpoints)")
	flag.IntVar(&o.ckptEvery, "ckpt-every", 0, "checkpoint every N supersteps (0 = no checkpointing; implied 5 when -checkpoint or -faultplan is set)")
	flag.BoolVar(&o.ckptDelta, "ckpt-delta", false, "with checkpointing on, save incremental (dirty-vertex-only) checkpoints between full snapshots")
	flag.BoolVar(&o.ckptFsync, "ckpt-fsync", true, "fsync checkpoint files and their directory on every save (disable only for throwaway runs; a machine crash may then corrupt or lose checkpoints)")
	flag.BoolVar(&o.ckptVerify, "ckpt-verify", false, "verify the integrity of every artifact in -checkpoint (frame structure, v3 checksums), print a per-file report, and exit; no assembly is run")
	flag.StringVar(&o.faultPlan, "faultplan", "", "inject simulated worker crashes: comma-separated ROUND:WORKER pairs counted over all BSP rounds, e.g. \"12:0,57:3\"")
	flag.BoolVar(&o.resume, "resume", false, "resume a killed run from the checkpoints in -checkpoint")
	flag.StringVar(&o.workflow, "workflow", "", "compose the assembly as an explicit op workflow instead of the canned pipeline, e.g. \"build,label,merge,bubble,rebuild,link,tiptrim:minlen=40,label,merge,fasta\" (unset op parameters inherit the global flags)")
	flag.StringVar(&o.transport, "transport", "mem", "message transport for every superstep shuffle: mem (in-process, the default) or tcp (drain lanes over the worker processes in -peers; output is byte-identical to mem)")
	flag.StringVar(&o.peers, "peers", "", "with -transport=tcp, comma-separated worker depot addresses (host:port), one per -workers, in worker order")
	flag.IntVar(&o.serveWorker, "serve-worker", -1, "run as lane-depot process for this worker index instead of assembling (pair with -listen; the coordinator lists this address in -peers)")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:0", "with -serve-worker, the address to listen on (port 0 picks an ephemeral port, printed on stdout)")
	flag.StringVar(&o.trace, "trace", "", "write a structured trace of every superstep, op, MR phase and checkpoint to this file")
	flag.StringVar(&o.traceFormat, "trace-format", "", "trace file format: jsonl (default) or chrome (load in Perfetto / chrome://tracing)")
	flag.StringVar(&o.metricsOut, "metrics", "", "write engine metrics (Prometheus text format) to this file at exit")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (engine goroutines carry job/phase/worker pprof labels)")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	o.theta = uint32(theta)
	if o.ckptVerify {
		if o.checkpoint == "" {
			fmt.Fprintln(os.Stderr, "ppa-assembler: -ckpt-verify requires -checkpoint")
			os.Exit(2)
		}
		corrupt, err := runCkptVerify(o.checkpoint, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppa-assembler:", err)
			os.Exit(1)
		}
		if corrupt > 0 {
			os.Exit(1)
		}
		return
	}
	if o.serveWorker >= 0 {
		if err := runServeWorker(o); err != nil {
			fmt.Fprintln(os.Stderr, "ppa-assembler:", err)
			os.Exit(1)
		}
		return
	}
	if o.in == "" {
		fmt.Fprintln(os.Stderr, "ppa-assembler: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ppa-assembler:", err)
		os.Exit(1)
	}
}

func run(o cliOpts) error {
	if err := validateFlags(o); err != nil {
		return err
	}
	obs, err := openObservability(o)
	if err != nil {
		return err
	}
	if o.workflow != "" {
		err = runWorkflow(o, obs)
	} else {
		err = runCanned(o, obs)
	}
	// Flush the trace/metrics/profile files even when the run failed — a
	// truncated trace of a failed run is exactly when one wants to look.
	if ferr := obs.finish(); err == nil {
		err = ferr
	}
	return err
}

// validateFlags rejects flag values and combinations that are wrong
// whatever the input, so they fail before any input is read or output
// written rather than deep inside an op.
func validateFlags(o cliOpts) error {
	if err := dna.ValidK(o.k); err != nil {
		return fmt.Errorf("-k: %w", err)
	}
	if o.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", o.workers)
	}
	if o.rounds < 1 || o.rounds > 2 {
		return fmt.Errorf("-rounds must be 1 or 2, got %d", o.rounds)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-tip", float64(o.tip)}, {"-editdist", float64(o.editDist)}, {"-minlen", float64(o.minLen)},
		{"-insert", o.insert}, {"-insertsd", o.insertSD}, {"-minsupport", float64(o.minSupport)},
		{"-scafminlen", float64(o.scafMinLen)}, {"-ckpt-every", float64(o.ckptEvery)},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative, got %v", f.name, f.v)
		}
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint (there is nothing to resume from in-memory checkpoints)")
	}
	return nil
}

func runCanned(o cliOpts, obs *observability) error {
	if o.gfa != "" && o.rounds != 2 {
		return fmt.Errorf("-gfa requires -rounds 2 (the graph is built during error correction)")
	}
	opt := core.Options{
		K:                o.k,
		Theta:            o.theta,
		TipLen:           o.tip,
		BubbleEditDist:   o.editDist,
		Workers:          o.workers,
		Parallel:         o.parallel,
		Overlap:          o.overlap,
		Rounds:           o.rounds,
		KeepGraph:        o.gfa != "",
		Resume:           o.resume,
		DeltaCheckpoints: o.ckptDelta,
		Tracer:           obs.Tracer,
		Metrics:          obs.Metrics,
	}
	var err error
	opt.CheckpointEvery, opt.Checkpointer, opt.Faults, err = faultTolerance(o)
	if err != nil {
		return err
	}
	if opt.Labeler, err = parseLabeler(o.labeler); err != nil {
		return err
	}
	if opt.Partitioner, err = core.MakePartitioner(o.partitioner, o.k); err != nil {
		return err
	}
	if opt.Repartition, err = parseRepartition(o.repartition); err != nil {
		return err
	}
	if opt.Transport, err = makeTransport(o); err != nil {
		return err
	}
	if opt.Transport != nil {
		defer opt.Transport.Close()
	}

	reads, err := loadReadList(o.in)
	if err != nil {
		return err
	}
	var pairs []scaffold.Pair
	if o.scaffoldOut != "" {
		// Pair up front so an odd read count fails before assembly.
		if pairs, err = scaffold.PairUp(reads); err != nil {
			return err
		}
	}

	res, err := core.Assemble(pregel.ShardSlice(reads, o.workers), opt)
	if err != nil {
		return err
	}

	var recs []fastx.Record
	for i, c := range res.Contigs {
		if c.Len() < o.minLen {
			continue
		}
		recs = append(recs, fastx.Record{
			Name: fmt.Sprintf("contig_%d length=%d cov=%d", i+1, c.Len(), c.Node.Cov),
			Seq:  c.Node.Seq.String(),
		})
	}
	w := os.Stdout
	if o.out != "-" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := fastx.WriteFasta(w, recs, 70); err != nil {
		return err
	}
	if o.gfa != "" {
		gf, err := os.Create(o.gfa)
		if err != nil {
			return err
		}
		defer gf.Close()
		if err := core.WriteGFA(gf, res.FinalGraph, o.k); err != nil {
			return err
		}
	}
	// Scaffolding runs after the contig and GFA outputs are on disk, so a
	// scaffolding failure (e.g. no pairs to estimate the insert size from)
	// never discards the finished assembly.
	var sres *scaffold.Result
	if o.scaffoldOut != "" {
		var scontigs []scaffold.Contig
		sres, scontigs, err = core.ScaffoldContigs(res, opt, pairs, scaffold.Options{
			InsertMean: o.insert, InsertSD: o.insertSD,
			MinSupport: o.minSupport, MinContigLen: o.scafMinLen,
		})
		if err != nil {
			return err
		}
		sf, err := os.Create(o.scaffoldOut)
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := fastx.WriteFasta(sf, scaffold.Records(scontigs, sres.Scaffolds), 70); err != nil {
			return err
		}
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "k-mer vertices:    %d\n", res.KmerVertices)
		fmt.Fprintf(os.Stderr, "(k+1)-mers kept:   %d / %d (theta=%d)\n", res.K1Kept, res.K1Distinct, o.theta)
		fmt.Fprintf(os.Stderr, "bubbles pruned:    %d\n", res.BubblesPruned)
		fmt.Fprintf(os.Stderr, "tip vertices gone: %d (+%d+%d dropped at merge)\n",
			res.TipVerticesRemoved, res.TipsDroppedAtMerge[0], res.TipsDroppedAtMerge[1])
		fmt.Fprintf(os.Stderr, "contigs written:   %d\n", len(recs))
		if sres != nil {
			multi, largest := 0, 0
			for _, s := range sres.Scaffolds {
				if s.Len() > 1 {
					multi++
				}
				if s.Len() > largest {
					largest = s.Len()
				}
			}
			fmt.Fprintf(os.Stderr, "scaffolds written: %d (%d multi-contig, largest chain %d contigs)\n",
				len(sres.Scaffolds), multi, largest)
			fmt.Fprintf(os.Stderr, "scaffold links:    %d bundles, %d kept (insert %.0f±%.0f, %d/%d pairs placed)\n",
				sres.LinkBundles, sres.LinksKept, sres.InsertMean, sres.InsertSD,
				sres.PairsPlaced, sres.PairsTotal)
			fmt.Fprintf(os.Stderr, "scaffold jobs:     %d supersteps, %d messages, %.2fs simulated\n",
				sres.Stats.Supersteps, sres.Stats.Messages, sres.SimSeconds)
		}
		if opt.Faults != nil {
			fmt.Fprintf(os.Stderr, "faults injected:   %d/%d fired, all recovered (checkpoint every %d supersteps)\n",
				opt.Faults.FiredCount(), opt.Faults.Scheduled(), opt.CheckpointEvery)
		}
		printCheckpointIO(res.CheckpointSaves, res.CheckpointRestores,
			res.CheckpointBytesWritten, res.CheckpointBytesRestored)
		printMigrationSummary(res.Migrations, res.MigratedVertices, res.MigrationBytes)
		printTransportSummary(opt.Transport)
		if total := res.LocalMessages + res.RemoteMessages; total > 0 {
			pname := o.partitioner
			if opt.Repartition != nil {
				pname = "adaptive(" + pname + ")"
			}
			fmt.Fprintf(os.Stderr, "shuffle traffic:   %d messages, %.1f%% remote (partitioner %s)\n",
				total, 100*float64(res.RemoteMessages)/float64(total), pname)
		}
		fmt.Fprintf(os.Stderr, "simulated time:    %.2fs (%d workers), wall %.2fs\n",
			res.SimSeconds, o.workers, res.WallSeconds)
	}
	return nil
}

// loadReadList accepts a FASTQ/FASTA file (by extension, optionally
// gzip-compressed), a shardio store directory, or a plain one-read-per-line
// file, and returns the reads in their on-disk order (so interleaved pairs
// stay adjacent).
func loadReadList(path string) ([]string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		store, err := shardio.Open(path)
		if err != nil {
			return nil, err
		}
		shards, err := store.ReadShards(0)
		if err != nil {
			return nil, err
		}
		return pregel.Flatten(shards), nil
	}
	f, err := fastx.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch fastx.BaseExt(path) {
	case ".fastq", ".fq":
		recs, err := fastx.ReadFastq(f)
		if err != nil {
			return nil, err
		}
		return fastx.Seqs(recs), nil
	case ".fasta", ".fa":
		recs, err := fastx.ReadFasta(f)
		if err != nil {
			return nil, err
		}
		return fastx.Seqs(recs), nil
	default:
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		var reads []string
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line != "" {
				reads = append(reads, line)
			}
		}
		return reads, nil
	}
}
