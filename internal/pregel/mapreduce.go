package pregel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"ppaassembler/internal/telemetry"
)

// MapReduce is the paper's first Pregel+ API extension (§II): a mini
// MapReduce procedure used during graph loading and for the grouping steps
// of DBG construction (op ①), contig merging (op ③) and bubble filtering
// (op ④).
//
// The input is sharded per worker (input[w] is worker w's shard, mirroring
// HDFS block placement). Each worker maps its shard, emitted (key, value)
// pairs are shuffled to worker keyHash(key) % W (or through a configured
// Partitioner; see MRConfig), sorted by key with keyLess,
// grouped, and reduced; reduce output stays on the reducing worker (which is
// how contigs acquire their (worker, ordinal) IDs in op ③).
//
// Order contract: each reducer reduces its groups in ascending keyLess
// order, and a group's values arrive in (source worker ascending, emission
// order) — what a stable sort of the concatenated lanes gives — whether or
// not MRConfig.Parallel is set.
//
// Cost: the clock is charged one shuffle round — barrier latency + slowest
// mapper + most-loaded link — and one reduce round. pairBytes is the charged
// wire size of one shuffled pair.
//
// The vals slice passed to reduceFn aliases a per-reducer arena and is only
// valid for the duration of that reduce call; copy it to retain it.
//
// MapReduce runs sequentially; MapReduceCfg adds multi-core execution.
func MapReduce[I, K, V, O any](
	clock *SimClock,
	workers int,
	pairBytes int,
	input [][]I,
	mapFn func(worker int, item I, emit func(K, V)),
	keyHash func(K) uint64,
	keyLess func(K, K) bool,
	reduceFn func(worker int, key K, vals []V, emit func(O)),
) ([][]O, *Stats) {
	return MapReduceCfg(clock, MRConfig{Workers: workers, PairBytes: pairBytes},
		input, mapFn, keyHash, keyLess, reduceFn)
}

// MRConfig configures one MapReduceCfg run.
type MRConfig struct {
	// Workers is the number of logical workers (map shards / reducers).
	Workers int
	// PairBytes is the charged wire size of one shuffled (key, value) pair.
	// Zero means DefaultMessageBytes.
	PairBytes int
	// Parallel runs the map phase on one goroutine per source worker and the
	// shuffle+sort+reduce phase on one goroutine per destination worker.
	// Each mapper writes only its own per-destination buckets and each
	// reducer drains only the bucket lanes addressed to it, mirroring the
	// Pregel engine's shuffle; the output is identical to sequential
	// execution. Map and reduce UDFs are then called concurrently from
	// different workers and must not write shared state without
	// per-worker partitioning.
	Parallel bool
	// Partitioner, when non-nil, routes keys to reducers through the same
	// placement strategy the Pregel engine uses for vertices: keyHash is
	// then treated as a key → routing-ID projection (usually the identity
	// on a vertex-ID key, NOT a mixing hash) and the reducer is
	// Partitioner.Assign(routingID). A reduce whose output feeds a graph
	// keyed by the same IDs thus lands on the destination vertex's home
	// worker. With a nil Partitioner keys group by keyHash(k) % Workers,
	// the historical behavior; for a routing ID the two paths agree
	// exactly when the partitioner is HashPartitioner, since Assign applies
	// the same SplitMix64 mix as Uint64Hash. Call sites whose reducer
	// identity is part of the output contract (the assembler's contig
	// merge, whose reducer index is baked into contig IDs) deliberately
	// leave this nil so the grouping stays placement-invariant.
	Partitioner Partitioner
	// Faults, when non-nil, injects worker crashes for fault-tolerance
	// testing. MapReduce recovers by lineage, not by checkpoint: the
	// failed worker's map or reduce task re-runs from its in-memory input
	// (map shard, or shuffled bucket lanes), the classic MapReduce failure
	// model. Each phase ticks the shared plan once, so a pipeline-wide
	// schedule can land a crash inside a shuffle round. Because map and
	// reduce UDFs are allowed to accumulate caller-owned per-worker state
	// (the assembler's θ-filter counters, merge ordinals and pair counts
	// all do), the redo is priced, not re-invoked: the failed task's
	// second execution is identical by construction for deterministic
	// UDFs, so recovery only charges the clock an extra round carried by
	// the failed worker alone.
	Faults *FaultPlan

	// Name labels this MapReduce in trace spans and pprof labels (e.g.
	// "build.k1", "scaffold.links"). Empty means "mapreduce".
	Name string
	// Tracer, when non-nil, receives map/shuffle/reduce phase spans; see
	// Config.Tracer for the emission contract.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, receives the mr_* counters.
	Metrics *telemetry.Registry
}

// Validate rejects nonsensical MapReduce configurations with a clear
// error; like Config.Validate it is meant to be called early by CLIs and
// the workflow layer (zero values are still defaulted for library use).
func (c MRConfig) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("pregel: MapReduce Workers must be positive, got %d", c.Workers)
	}
	if c.PairBytes < 0 {
		return fmt.Errorf("pregel: MapReduce PairBytes must not be negative, got %d", c.PairBytes)
	}
	return nil
}

func (c MRConfig) withDefaults() MRConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PairBytes <= 0 {
		c.PairBytes = DefaultMessageBytes
	}
	return c
}

// MapReduceCfg is MapReduce with explicit configuration, including parallel
// per-worker execution (see MRConfig.Parallel).
//
// The vals slice passed to reduceFn aliases a per-reducer arena and is only
// valid for the duration of that reduce call.
func MapReduceCfg[I, K, V, O any](
	clock *SimClock,
	cfg MRConfig,
	input [][]I,
	mapFn func(worker int, item I, emit func(K, V)),
	keyHash func(K) uint64,
	keyLess func(K, K) bool,
	reduceFn func(worker int, key K, vals []V, emit func(O)),
) ([][]O, *Stats) {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	type pair struct {
		k K
		v V
	}
	name := cfg.Name
	if name == "" {
		name = "mapreduce"
	}
	stats := &Stats{Name: name, Workers: workers}
	tr := cfg.Tracer
	emitEv := func(kind telemetry.Kind, evName string, wallNs int64, simNs float64, args ...telemetry.Arg) {
		tr.Emit(telemetry.Event{Kind: kind, Name: evName, Cat: "mr", WallNs: wallNs, SimNs: simNs, Args: args})
	}
	var wallMap0 int64
	if tr != nil {
		wallMap0 = nowNs()
		emitEv(telemetry.KindBegin, "mr", wallMap0, clock.Ns(), telemetry.S("name", name))
	}

	// Key grouping: with a partitioner, keyHash projects the key to a
	// routing ID placed like a vertex; without one, it is a mixing hash
	// taken modulo the worker count (the historical behavior).
	route := func(k K) int { return int(keyHash(k) % uint64(workers)) }
	if part := cfg.Partitioner; part != nil {
		route = func(k K) int { return part.Assign(VertexID(keyHash(k)), workers) }
	}

	// Map phase: each worker maps its shard into per-destination lanes.
	buckets := make([][][]pair, workers) // [src][dst][]pair
	mapNs := make([]float64, workers)
	outBytes := make([]float64, workers)
	localBytes := make([]float64, workers)
	emitted := make([]int64, workers)
	emittedLocal := make([]int64, workers)
	mapWorker := func(w int) {
		buckets[w] = make([][]pair, workers)
		if w >= len(input) {
			return
		}
		start := nowNs()
		for _, item := range input[w] {
			mapFn(w, item, func(k K, v V) {
				d := route(k)
				buckets[w][d] = append(buckets[w][d], pair{k, v})
				emitted[w]++
				if d == w {
					emittedLocal[w]++
				}
			})
		}
		mapNs[w] = float64(nowNs() - start)
	}
	forEachWorkerProf(workers, cfg.Parallel, name, "map", mapWorker)
	wallMap1 := int64(0)
	if tr != nil {
		wallMap1 = nowNs()
	}
	if w, fired := cfg.Faults.tick(workers); fired {
		// Lineage recovery: worker w's map output is lost and its task
		// re-runs from the in-memory shard while the other workers wait —
		// charged as an extra round carried by w alone (see MRConfig.Faults
		// for why the UDFs are not literally invoked a second time).
		if tr != nil {
			emitEv(telemetry.KindInstant, "fault", nowNs(), clock.Ns(),
				telemetry.I("worker", int64(w)), telemetry.S("phase", "map"))
		}
		redo := make([]float64, workers)
		redoBytes := make([]float64, workers)
		redoLocal := make([]float64, workers)
		redo[w] = mapNs[w]
		redoBytes[w] = float64(emitted[w]-emittedLocal[w]) * float64(cfg.PairBytes)
		redoLocal[w] = float64(emittedLocal[w]) * float64(cfg.PairBytes)
		clock.ChargeSuperstepTiered(redo, redoBytes, redoLocal)
		stats.Recoveries++
	}
	for w := 0; w < workers; w++ {
		outBytes[w] = float64(emitted[w]-emittedLocal[w]) * float64(cfg.PairBytes)
		localBytes[w] = float64(emittedLocal[w]) * float64(cfg.PairBytes)
		stats.Messages += emitted[w]
		stats.LocalMessages += emittedLocal[w]
		stats.RemoteMessages += emitted[w] - emittedLocal[w]
		stats.Bytes += emitted[w] * int64(cfg.PairBytes)
	}
	var simMap0, simComp float64
	if tr != nil {
		simMap0 = clock.Ns()
		_, simComp, _ = clock.SuperstepParts(mapNs, outBytes, localBytes)
	}
	clock.ChargeSuperstepTiered(mapNs, outBytes, localBytes)
	clock.CountMessages(stats.LocalMessages, stats.RemoteMessages)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("mr_jobs_total").Add(1)
		cfg.Metrics.Counter("mr_pairs_local_total").Add(stats.LocalMessages)
		cfg.Metrics.Counter("mr_pairs_remote_total").Add(stats.RemoteMessages)
		cfg.Metrics.Counter("mr_bytes_total").Add(stats.Bytes)
	}
	var wallRed0 int64
	if tr != nil {
		// The map span covers UDF execution; the shuffle span covers the
		// charged network transfer (its sim width is the λ + transfer part
		// of the map round's charge, its wall width the gap between the map
		// and reduce phases, where lane draining happens).
		wallRed0 = nowNs()
		emitEv(telemetry.KindBegin, "map", wallMap0, simMap0)
		emitEv(telemetry.KindEnd, "map", wallMap1, simMap0+simComp)
		emitEv(telemetry.KindBegin, "shuffle", wallMap1, simMap0+simComp)
		emitEv(telemetry.KindEnd, "shuffle", wallRed0, clock.Ns(),
			telemetry.I("pairs", stats.Messages))
		emitEv(telemetry.KindBegin, "reduce", wallRed0, clock.Ns())
	}

	// Shuffle + sort + reduce phase: destination worker d drains the lanes
	// buckets[*][d] into one flat pair arena (sized exactly), sorts it, and
	// reduces each key group against a values arena shared across groups.
	out := make([][]O, workers)
	redNs := make([]float64, workers)
	reduceWorker := func(d int) {
		total := 0
		for s := 0; s < workers; s++ {
			total += len(buckets[s][d])
		}
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("pregel: MapReduce %s: %d pairs for one reducer exceed the arrival index", name, total))
		}
		arena := make([]arrival[K, V], 0, total)
		for s := 0; s < workers; s++ {
			for _, p := range buckets[s][d] {
				arena = append(arena, arrival[K, V]{p.k, p.v, int32(len(arena))})
			}
			buckets[s][d] = nil
		}
		start := nowNs()
		slices.SortFunc(arena, func(a, b arrival[K, V]) int {
			if keyLess(a.k, b.k) {
				return -1
			}
			if keyLess(b.k, a.k) {
				return 1
			}
			return cmp.Compare(a.i, b.i)
		})
		vals := make([]V, len(arena))
		for i := range arena {
			vals[i] = arena[i].v
		}
		emit := func(o O) { out[d] = append(out[d], o) }
		i := 0
		for i < len(arena) {
			// The arena is sorted, so a later key equals arena[i].k
			// exactly when it is not greater.
			j := i + 1
			for j < len(arena) && !keyLess(arena[i].k, arena[j].k) {
				j++
			}
			reduceFn(d, arena[i].k, vals[i:j], emit)
			i = j
		}
		redNs[d] = float64(nowNs() - start)
	}
	forEachWorkerProf(workers, cfg.Parallel, name, "reduce", reduceWorker)
	if d, fired := cfg.Faults.tick(workers); fired {
		// Lineage recovery: the failed reduce task re-runs from its lanes,
		// priced as an extra round carried by d alone.
		if tr != nil {
			emitEv(telemetry.KindInstant, "fault", nowNs(), clock.Ns(),
				telemetry.I("worker", int64(d)), telemetry.S("phase", "reduce"))
		}
		redo := make([]float64, workers)
		redo[d] = redNs[d]
		clock.ChargeSuperstep(redo, make([]float64, workers))
		stats.Recoveries++
	}
	clock.ChargeSuperstep(redNs, make([]float64, workers))
	stats.Supersteps = 2
	stats.SimSeconds = clock.Seconds()
	if tr != nil {
		wallRed1 := nowNs()
		emitEv(telemetry.KindEnd, "reduce", wallRed1, clock.Ns())
		emitEv(telemetry.KindEnd, "mr", wallRed1, clock.Ns(),
			telemetry.I("pairs", stats.Messages))
	}
	return out, stats
}

// arrival is one shuffled pair in a reducer's arena, tagged with its arrival
// index: its position when the source lanes are concatenated in source
// worker order, each lane in emission order. Sorting by (key, arrival)
// gives the same order as a stable sort by key.
type arrival[K, V any] struct {
	k K
	v V
	i int32
}

// forEachWorker runs fn(w) for every worker index, on one goroutine per
// worker when parallel is set.
func forEachWorker(workers int, parallel bool, fn func(w int)) {
	if !parallel || workers <= 1 {
		for w := 0; w < workers; w++ {
			fn(w)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// Uint64Hash is a keyHash for uint64-like keys (it applies the same mixing
// as vertex partitioning so adversarially structured keys still spread).
func Uint64Hash(k uint64) uint64 { return hashID(VertexID(k)) }

// ShardSlice splits items into w shards round-robin, simulating an even
// HDFS block distribution.
func ShardSlice[T any](items []T, w int) [][]T {
	if w <= 0 {
		w = 1
	}
	out := make([][]T, w)
	for i, it := range items {
		out[i%w] = append(out[i%w], it)
	}
	return out
}

// Flatten concatenates per-worker shards in worker order.
func Flatten[T any](shards [][]T) []T {
	var out []T
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}
