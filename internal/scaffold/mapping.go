package scaffold

import (
	"slices"
	"time"

	"ppaassembler/internal/dna"
	"ppaassembler/internal/pregel"
)

// seedPos locates one seed occurrence on a contig's forward strand.
type seedPos struct {
	contig int32 // index into the Build contig slice
	pos    int32
}

// contigIndex is an exact-match k-mer index over the forward strands of the
// included contigs. In a real deployment every worker holds a replica (the
// contig set is orders of magnitude smaller than the read set), so building
// it is charged to the simulated clock as serial time.
type contigIndex struct {
	s       int
	contigs []Contig
	seeds   map[uint64][]seedPos
}

func buildIndex(contigs []Contig, included []bool, s int, clock *pregel.SimClock) *contigIndex {
	start := time.Now()
	ix := &contigIndex{s: s, contigs: contigs, seeds: make(map[uint64][]seedPos)}
	mask := dna.KmerMask(s)
	for ci, c := range contigs {
		if !included[ci] || c.Seq.Len() < s {
			continue
		}
		var v uint64
		for p := 0; p < c.Seq.Len(); p++ {
			v = (v<<2 | uint64(c.Seq.At(p))) & mask
			if p >= s-1 {
				ix.seeds[v] = append(ix.seeds[v], seedPos{int32(ci), int32(p - s + 1)})
			}
		}
	}
	clock.ChargeSerial(float64(time.Since(start).Nanoseconds()))
	return ix
}

// placement is one mate placed on a contig: pos is the inferred position of
// the read's leftmost base on the contig's forward strand (possibly negative
// or past the end when the read overhangs the contig), fwd its strand.
type placement struct {
	contig int32
	pos    int32
	fwd    bool
}

// place maps one read by seed voting: every error-free length-s window votes
// for the (contig, strand, offset) locus it implies, and the read is placed
// at the locus with strictly the most votes. Ties mean a repeat-ambiguous
// placement and leave the read unplaced, exactly as read mappers discard
// multi-mapping mates before scaffolding.
//
// votes is the caller's scratch buffer, reused across calls so that voting
// allocates nothing once it has grown; concurrent callers (map workers)
// each need their own. The votes are packed loci (see packLocus), counted
// by sorting them and measuring runs.
func (ix *contigIndex) place(read string, votes *[]uint64) (placement, bool) {
	s := ix.s
	rl := len(read)
	if rl < s {
		return placement{}, false
	}
	vs := (*votes)[:0]
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
		o := int32(i - s + 1) // window offset within the read
		for _, sp := range ix.seeds[fv] {
			vs = append(vs, packLocus(placement{sp.contig, sp.pos - o, true}))
		}
		// A reverse-strand read R satisfies R == RC(contig[q : q+rl]); its
		// window at offset o appears reverse-complemented on the contig at
		// position q + rl - s - o.
		for _, sp := range ix.seeds[rv] {
			vs = append(vs, packLocus(placement{sp.contig, sp.pos - (int32(rl) - int32(s) - o), false}))
		}
	}
	*votes = vs
	slices.Sort(vs)
	var best uint64
	maxV, n := 0, 0 // the largest run and how many runs reach it
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		switch c := j - i; {
		case c > maxV:
			best, maxV, n = vs[i], c, 1
		case c == maxV:
			n++
		}
		i = j
	}
	if n != 1 {
		return placement{}, false
	}
	return unpackLocus(best), true
}

// packLocus packs a vote's locus into one word, losslessly, so that equal
// words are equal loci: the contig index (never negative) in the top 31
// bits, the position's 32 bits below it, and the strand in the lowest bit.
func packLocus(p placement) uint64 {
	v := uint64(uint32(p.contig))<<33 | uint64(uint32(p.pos))<<1
	if p.fwd {
		v |= 1
	}
	return v
}

func unpackLocus(v uint64) placement {
	return placement{contig: int32(v >> 33), pos: int32(uint32(v >> 1)), fwd: v&1 == 1}
}

// endpoint converts a mate placement into the contig end the mate's partner
// lies beyond, plus the distance from the mate's 5' base to that end. A
// forward mate reads rightward, so the fragment continues past end R; a
// reverse mate reads leftward toward end L.
func endpoint(p placement, readLen, contigLen int) (End, int) {
	if p.fwd {
		return R, contigLen - int(p.pos)
	}
	return L, int(p.pos) + readLen
}
