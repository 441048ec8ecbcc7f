package scaffold

import (
	"math/rand"
	"testing"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// placeByMap is the map-tally seed vote place used before votes were packed,
// sorted and run-length counted: the oracle for TestPlaceMatchesMapTally.
func placeByMap(ix *contigIndex, read string) (placement, bool) {
	s := ix.s
	rl := len(read)
	if rl < s {
		return placement{}, false
	}
	votes := map[placement]int32{}
	mask := dna.KmerMask(s)
	var fv, rv uint64
	run := 0
	for i := 0; i < rl; i++ {
		b, ok := dna.BaseFromByte(read[i])
		if !ok {
			run = 0
			continue
		}
		fv = (fv<<2 | uint64(b)) & mask
		rv = rv>>2 | uint64(b.Complement())<<(2*uint(s-1))
		if run++; run < s {
			continue
		}
		o := int32(i - s + 1)
		for _, sp := range ix.seeds[fv] {
			votes[placement{sp.contig, sp.pos - o, true}]++
		}
		for _, sp := range ix.seeds[rv] {
			votes[placement{sp.contig, sp.pos - (int32(rl) - int32(s) - o), false}]++
		}
	}
	var maxV int32
	for _, v := range votes {
		maxV = max(maxV, v)
	}
	if maxV == 0 {
		return placement{}, false
	}
	var best placement
	n := 0
	for l, v := range votes {
		if v == maxV {
			best = l
			n++
		}
	}
	if n != 1 {
		return placement{}, false
	}
	return best, true
}

// TestPackLocusRoundTrip: packing is lossless over the whole field ranges,
// so two votes share a word exactly when they name the same locus.
func TestPackLocusRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		p := placement{contig: r.Int31(), pos: r.Int31() - r.Int31(), fwd: r.Intn(2) == 0}
		if i < 4 { // the extremes of each field
			p = placement{contig: [4]int32{0, 1<<31 - 1, 0, 7}[i], pos: [4]int32{-1 << 31, 1<<31 - 1, 0, -1}[i], fwd: i%2 == 0}
		}
		if got := unpackLocus(packLocus(p)); got != p {
			t.Fatalf("unpack(pack(%+v)) = %+v", p, got)
		}
	}
}

// TestPlaceMatchesMapTally checks the sort-and-count vote against the map
// tally on reads drawn to hit every branch: forward and reverse strands,
// planted repeats (within one contig and across contigs), reads running
// off contig ends, Ns, substitutions, reads shorter than the seed, and
// reads stitched from two loci so that their vote counts tie exactly.
func TestPlaceMatchesMapTally(t *testing.T) {
	const s = 21
	r := rand.New(rand.NewSource(7))
	ref := testGenome(t, 30000, 21)
	rep := ref.Slice(1000, 1400) // a 400 bp repeat, planted below
	var seqs []dna.Seq
	for i := 0; i+3000 <= ref.Len(); i += 3000 {
		c := ref.Slice(i, i+3000)
		if i/3000%3 == 1 {
			c = c.Slice(0, 1000).Concat(rep).Concat(c.Slice(1400, 3000))
		}
		if i/3000 == 4 {
			c = c.Concat(rep) // a second copy inside one contig
		}
		seqs = append(seqs, c)
	}
	contigs := FromSeqs(seqs)
	included := make([]bool, len(contigs))
	for i := range included {
		included[i] = i != 2 // one contig left out of the index
	}
	ix := buildIndex(contigs, included, s, pregel.NewSimClock(pregel.CostModel{}))

	sub := func(c dna.Seq, rl int) string {
		p := r.Intn(c.Len() - rl + 1)
		return c.Slice(p, p+rl).String()
	}
	var reads []string
	var kind []string
	add := func(k, read string) {
		if r.Intn(2) == 0 { // reverse-complement, keeping Ns
			b := make([]byte, len(read))
			for j := range b {
				b[j] = map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A', 'N': 'N'}[read[len(read)-1-j]]
			}
			read = string(b)
		}
		reads, kind = append(reads, read), append(kind, k)
	}
	for i := 0; i < 3000; i++ {
		c := seqs[r.Intn(len(seqs))]
		rl := 30 + r.Intn(120)
		switch i % 8 {
		case 0, 1: // plain
			add("plain", sub(c, rl))
		case 2: // from the repeat
			add("repeat", sub(rep, min(rl, rep.Len())))
		case 3: // with substitutions and Ns
			b := []byte(sub(c, rl))
			for j := 0; j < 1+r.Intn(3); j++ {
				b[r.Intn(len(b))] = "ACGTN"[r.Intn(5)]
			}
			add("mutated", string(b))
		case 4: // overhanging a contig end: half the read is random
			b := []byte(sub(c, rl))
			for j := 0; j < len(b)/2; j++ {
				b[j] = "ACGT"[r.Intn(4)]
			}
			add("overhang", string(b))
		case 5: // shorter than the seed
			add("short", sub(c, 1+r.Intn(s-1)))
		case 6: // two loci with the same number of windows each (unless
			// both halves come from one locus or one from the unindexed
			// contig)
			h := 25 + r.Intn(40)
			add("tie", sub(c, h)+sub(seqs[r.Intn(len(seqs))], h))
		case 7: // random bases
			b := make([]byte, rl)
			for j := range b {
				b[j] = "ACGT"[r.Intn(4)]
			}
			add("random", string(b))
		}
	}

	var votes []uint64
	placed, tied := map[string]int{}, 0
	for i, read := range reads {
		got, gotOK := ix.place(read, &votes)
		want, wantOK := placeByMap(ix, read)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s read %q: place = %+v,%v, map tally = %+v,%v", kind[i], read, got, gotOK, want, wantOK)
		}
		if gotOK {
			placed[kind[i]]++
		} else if kind[i] == "tie" {
			tied++
		}
	}
	// Every kind that should place does; the repeat-only, short and random
	// reads never do; most stitched reads tie and stay unplaced.
	for _, k := range []string{"plain", "mutated", "overhang"} {
		if placed[k] == 0 {
			t.Errorf("no %s read placed", k)
		}
	}
	for _, k := range []string{"repeat", "short", "random"} {
		if placed[k] != 0 {
			t.Errorf("%d %s reads placed", placed[k], k)
		}
	}
	if tied < 100 {
		t.Errorf("only %d of the stitched reads tied", tied)
	}
}
