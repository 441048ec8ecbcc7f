// Command perfbench is the repository's end-to-end benchmark: it generates
// a paired-end read set from a seeded synthetic genome, assembles and
// scaffolds it in-process through the public pipeline (core.Assemble then
// core.ScaffoldContigs) for a fixed measuring time, checks every pass's
// output, and prints one JSON result line. With --trace 1 it also runs
// traced passes and reports per-layer metrics. See README.md.
//
//	go run . --workload paired-lr --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"ppaassembler/internal/telemetry"
	"ppaassembler/internal/transport"
)

// inputsPerRun is how many distinct inputs a run draws from its seed. Every
// input is assembled at least once, and the quality metrics average over
// them.
const inputsPerRun = 3

// setupsPerPass is how many set-ups are timed after each pass. The host's
// single-thread speed drifts by tens of percent over seconds, so set-ups
// are spread over the whole measuring window, like the passes, rather than
// bunched before it.
const setupsPerPass = 3

// maxMeasure stops the measuring loop well inside the three-minute limit of
// one run even on a host far slower than the one the sizes were chosen on.
const maxMeasure = 120 * time.Second

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run at a tenth of the workload's size")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, host, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hostLine, _ := json.Marshal(map[string]hostInfo{"host": host})
	fmt.Println(string(hostLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's state: its workload, inputs and live TCP topology.
type bench struct {
	w      workload
	inputs []*input
	dep    *depots
	log    io.Writer

	attempted, failed int
}

func (b *bench) transport() transport.Transport {
	if b.dep == nil {
		return nil
	}
	return b.dep.tp
}

// setup generates input i and, for a tcp workload, replaces the depot
// topology with a freshly started and dialed one (the previous one is
// closed first, so at most one is ever live). It returns the input and the
// time taken.
func (b *bench) setup(seed int64, i int) (*input, float64, error) {
	runtime.GC() // so no set-up pays for collecting its predecessor
	t0 := time.Now()
	in, err := b.w.generate(seed, i)
	if err != nil {
		return nil, 0, fmt.Errorf("generate input %d: %w", i, err)
	}
	if b.w.tcp {
		b.dep.close()
		if b.dep, err = startDepots(); err != nil {
			return nil, 0, fmt.Errorf("start depots: %w", err)
		}
	}
	return in, time.Since(t0).Seconds(), nil
}

// attempt runs one pass and checks it, counting the attempt; a failed pass
// is logged and returns nil.
func (b *bench) attempt(in *input, pr *probes, tr telemetry.Tracer) *passOut {
	b.attempted++
	out, err := b.w.pass(in, b.transport(), pr, tr)
	if err == nil {
		err = b.check(in, out)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: pass %d failed: %v\n", b.attempted, err)
		return nil
	}
	return out
}

func run(cfg runConfig, log io.Writer) (*result, hostInfo, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, hostInfo{}, err
	}
	if cfg.smoke {
		w = w.smoke()
	}
	b := &bench{w: w, log: log}
	defer func() { b.dep.close() }()
	var setupTimes []float64
	for i := 0; i < inputsPerRun; i++ {
		in, t, err := b.setup(cfg.seed, i)
		if err != nil {
			return nil, hostInfo{}, err
		}
		b.inputs = append(b.inputs, in)
		setupTimes = append(setupTimes, t)
	}

	var walls, cpus, allocs []float64
	var steal float64
	tl := newTraceLedger()
	start := time.Now()
	for p := 0; p < inputsPerRun || time.Since(start).Seconds() < cfg.seconds; p++ {
		if time.Since(start) > maxMeasure {
			break
		}
		in := b.inputs[p%len(b.inputs)]
		if out := b.attempt(in, &probes{}, nil); out != nil {
			walls = append(walls, out.wall)
			cpus = append(cpus, out.cpu)
			allocs = append(allocs, out.allocBytes)
			steal += out.stealSeconds
			if cfg.trace {
				if err := tl.tracedPass(b, in, out); err != nil {
					b.failed++
					fmt.Fprintf(log, "perfbench: traced pass failed: %v\n", err)
				}
			}
		}
		// Generation is deterministic: a repeated set-up only times it
		// again, and the inputs the passes use are kept.
		for r := 0; r < setupsPerPass; r++ {
			_, t, err := b.setup(cfg.seed, (p+r)%inputsPerRun)
			if err != nil {
				return nil, hostInfo{}, err
			}
			setupTimes = append(setupTimes, t)
		}
	}
	if len(walls) == 0 {
		return nil, hostInfo{}, fmt.Errorf("%s: every one of %d passes failed", w.name, b.attempted)
	}
	passes := float64(len(walls))
	if cfg.trace {
		passes += float64(len(tl.walls))
		steal += tl.steal
	}
	host := currentHost(steal / passes)
	fmt.Fprintf(log, "perfbench: %s seed %d: %d passes attempted, %d failed, median wall %.3fs of %.3f, median set-up %.4fs\n",
		w.name, cfg.seed, b.attempted, b.failed, median(walls), walls, median(setupTimes))

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	if cfg.trace {
		if err := tl.report(res, b, host); err != nil {
			return nil, host, err
		}
		return res, host, nil
	}

	var fr, ng, sn float64
	n := 0
	for _, in := range b.inputs {
		if in.checked {
			fr += in.qual.genomeFracPct
			ng += float64(in.qual.ng50)
			sn += float64(in.qual.scaffoldN50)
			n++
		}
	}
	put := func(name string, v float64) { res.Metrics[name] = metricOut{v, unitOf(name)} }
	put("wall_s", median(walls))
	put("setup_s", median(setupTimes))
	put("cpu_s", median(cpus))
	put("peak_rss_mb", peakRSSMB())
	put("alloc_mb", median(allocs)/(1<<20))
	put("genome_fraction_pct", fr/float64(n))
	put("ng50_bp", ng/float64(n))
	put("scaffold_n50_bp", sn/float64(n))
	return res, host, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
