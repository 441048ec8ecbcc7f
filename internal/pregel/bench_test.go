package pregel

import "testing"

// BenchmarkSuperstepOverhead measures the engine's fixed per-superstep cost
// on a graph where every vertex does trivial work.
func BenchmarkSuperstepOverhead(b *testing.B) {
	g := NewGraph[int, int](Config{Workers: 4})
	const n = 10_000
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			if ctx.Superstep() < 3 {
				return
			}
			ctx.VoteToHalt()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageThroughput measures message routing: every vertex sends
// to a pseudo-random peer each superstep for 4 supersteps.
func BenchmarkMessageThroughput(b *testing.B) {
	const n = 10_000
	g := NewGraph[int, int](Config{Workers: 4})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
			for _, m := range msgs {
				*val += m
			}
			if ctx.Superstep() >= 4 {
				ctx.VoteToHalt()
				return
			}
			ctx.Send((id*2654435761+1)%n, 1)
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Messages), "msgs/op")
	}
}

// BenchmarkShuffle is the engine's shuffle-heavy regression workload: 20k
// vertices each fan out 8 messages per superstep for 6 supersteps, with and
// without goroutine-per-worker execution. Allocations per op track the
// arena reuse of the message path; msgs/s tracks end-to-end shuffle
// throughput. cmd-level tooling (bench_pregel_test.go at the repo root)
// re-runs this workload and emits BENCH_pregel.json.
func BenchmarkShuffle(b *testing.B) {
	for _, mode := range []struct {
		name              string
		parallel, overlap bool
	}{
		{"sequential", false, false},
		{"parallel", true, false},
		{"overlap", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, msgs := runShuffleWorkload(b, mode.parallel, mode.overlap, 4)
			_ = st
			b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// runShuffleWorkload runs the canonical shuffle benchmark job b.N times and
// returns the last run's stats plus total messages across all runs.
func runShuffleWorkload(b *testing.B, parallel, overlap bool, workers int) (*Stats, int64) {
	b.Helper()
	const (
		n      = 20_000
		fanout = 8
		steps  = 6
	)
	g := NewGraph[int64, int64](Config{Workers: workers, Parallel: parallel, Overlap: overlap})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st *Stats
	var err error
	var msgs int64
	for i := 0; i < b.N; i++ {
		st, err = g.Run(func(ctx *Context[int64], id VertexID, val *int64, in []int64) {
			for _, m := range in {
				*val += m
			}
			if ctx.Superstep() >= steps {
				ctx.VoteToHalt()
				return
			}
			for j := 0; j < fanout; j++ {
				ctx.Send(VertexID((uint64(id)*2654435761+uint64(j)*40503+7)%n), int64(id)+int64(j))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs += st.Messages
	}
	return st, msgs
}

// BenchmarkCheckpointCodec measures full-snapshot encode/decode through
// the v2 binary worker-section codec and the gob fallback, plus the delta
// encoder, on the synthetic partition MeasureCheckpointCodec uses — the
// engine-level counterpart of the checkpoint_throughput section in
// BENCH_pregel.json.
func BenchmarkCheckpointCodec(b *testing.B) {
	const vertices, msgsPerVertex = 50_000, 2
	w := benchWorker(vertices, msgsPerVertex)
	binBlob, err := encodeWorkerFull(w, true)
	if err != nil {
		b.Fatal(err)
	}
	gobBlob, err := encodeWorkerFull(w, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("section bytes: binary %d, gob %d", len(binBlob), len(gobBlob))

	b.Run("encode-binary", func(b *testing.B) {
		b.SetBytes(int64(len(binBlob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeWorkerFull(w, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-gob", func(b *testing.B) {
		b.SetBytes(int64(len(gobBlob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeWorkerFull(w, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-binary", func(b *testing.B) {
		b.SetBytes(int64(len(binBlob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeWorkerSection[int64, int64](binBlob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-gob", func(b *testing.B) {
		b.SetBytes(int64(len(gobBlob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeWorkerSection[int64, int64](gobBlob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-delta", func(b *testing.B) {
		w.dirty = make([]bool, vertices)
		for i := 0; i < vertices; i += 20 {
			w.dirty[i] = true
		}
		delta := encodeWorkerDelta(w)
		b.SetBytes(int64(len(delta)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeWorkerDelta(w)
		}
	})
}

// BenchmarkMapReduceShuffle measures the mini-MapReduce over 100k pairs.
func BenchmarkMapReduceShuffle(b *testing.B) {
	const n = 100_000
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(i % 997)
	}
	shards := ShardSlice(items, 4)
	clock := NewSimClock(DefaultCost())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := MapReduce(
			clock, 4, 8, shards,
			func(w int, item uint64, emit func(uint64, uint64)) { emit(item, 1) },
			Uint64Hash,
			func(a, c uint64) bool { return a < c },
			func(w int, key uint64, vals []uint64, emit func(uint64)) { emit(uint64(len(vals))) },
		)
		if len(Flatten(out)) != 997 {
			b.Fatal("wrong group count")
		}
	}
}

// BenchmarkMapReduceKmerShape measures the mini-MapReduce on the shape of
// DBG construction's (k+1)-mer counting job: 200k pairs over mostly
// distinct, well-mixed uint64 keys (every fourth pair repeats an earlier
// key, so groups hold one or two values), emitted by 2 mappers. Unlike
// BenchmarkMapReduceShuffle's 997 keys, the reduce-side sort dominates.
func BenchmarkMapReduceKmerShape(b *testing.B) {
	const n = 200_000
	items := make([]uint64, n)
	for i := range items {
		j := i
		if i%4 == 3 {
			j = i - 3 // a repeat of an earlier key
		}
		items[i] = Uint64Hash(uint64(j))
	}
	shards := ShardSlice(items, 2)
	clock := NewSimClock(DefaultCost())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := MapReduce(
			clock, 2, 12, shards,
			func(w int, item uint64, emit func(uint64, uint32)) { emit(item, 1) },
			func(k uint64) uint64 { return k },
			func(a, c uint64) bool { return a < c },
			func(w int, key uint64, vals []uint32, emit func(uint64)) { emit(uint64(len(vals))) },
		)
		if len(out[0])+len(out[1]) != n-n/4 {
			b.Fatal("wrong group count")
		}
	}
}

// BenchmarkCombinerWin shows the traffic reduction from a sum combiner on
// an all-to-one pattern.
func BenchmarkCombinerWin(b *testing.B) {
	for _, combine := range []bool{false, true} {
		name := "plain"
		if combine {
			name = "combined"
		}
		b.Run(name, func(b *testing.B) {
			const n = 20_000
			g := NewGraph[int, int](Config{Workers: 4})
			if combine {
				g.SetCombiner(func(a, c int) int { return a + c })
			}
			for i := 0; i < n; i++ {
				g.AddVertex(VertexID(i), 0)
			}
			b.ResetTimer()
			var msgs int64
			for i := 0; i < b.N; i++ {
				st, err := g.Run(func(ctx *Context[int], id VertexID, val *int, msgs []int) {
					if ctx.Superstep() == 0 {
						ctx.Send(0, 1)
					}
					ctx.VoteToHalt()
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs += st.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
