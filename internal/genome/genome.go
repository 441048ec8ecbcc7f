// Package genome generates synthetic reference sequences for the
// experiments. The paper evaluates on NCBI/GAGE datasets (Homo sapiens
// chromosomes, Bombus impatiens); this reproduction substitutes seeded
// random references with planted exact repeats, which create the genuine
// ⟨m-n⟩ ambiguity, tips-after-dead-ends and bubble structure that the
// assembler's operations exist to handle (PaperDatasets lists the stand-in
// for each dataset of the paper's Table I).
package genome

import (
	"fmt"
	"math/rand"

	"ppaassembler/internal/dna"
)

// Spec describes a synthetic reference.
type Spec struct {
	// Name labels the dataset (e.g. "sim-HC2").
	Name string
	// Length is the reference length in base pairs.
	Length int
	// Repeats plants this many exact repeat pairs.
	Repeats int
	// RepeatLen is the length of each planted repeat (must exceed k to be
	// unresolvable).
	RepeatLen int
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds the reference sequence for the spec.
func Generate(spec Spec) (dna.Seq, error) {
	if spec.Length <= 0 {
		return dna.Seq{}, fmt.Errorf("genome: non-positive length %d", spec.Length)
	}
	if spec.Repeats > 0 && spec.RepeatLen <= 0 {
		return dna.Seq{}, fmt.Errorf("genome: %d repeats with non-positive repeat length", spec.Repeats)
	}
	if spec.Repeats*spec.RepeatLen*2 > spec.Length/2 {
		return dna.Seq{}, fmt.Errorf("genome: repeats cover more than half the genome")
	}
	r := rand.New(rand.NewSource(spec.Seed))
	b := make([]byte, spec.Length)
	for i := range b {
		b[i] = byte(r.Intn(4))
	}
	// Plant repeats: copy a random segment to a random position. Both
	// copies then share all interior k-mers for any k < RepeatLen, making
	// the junction vertices ambiguous. Source and destination regions are
	// kept disjoint from every previously planted region so repeats do not
	// clobber each other.
	var reserved [][2]int
	free := func(pos int) bool {
		for _, iv := range reserved {
			if pos < iv[1] && pos+spec.RepeatLen > iv[0] {
				return false
			}
		}
		return true
	}
	pick := func() (int, bool) {
		for tries := 0; tries < 200; tries++ {
			p := r.Intn(spec.Length - spec.RepeatLen)
			if free(p) {
				return p, true
			}
		}
		return 0, false
	}
	for rep := 0; rep < spec.Repeats; rep++ {
		src, ok1 := pick()
		if !ok1 {
			break
		}
		reserved = append(reserved, [2]int{src, src + spec.RepeatLen})
		dst, ok2 := pick()
		if !ok2 {
			break
		}
		reserved = append(reserved, [2]int{dst, dst + spec.RepeatLen})
		copy(b[dst:dst+spec.RepeatLen], b[src:src+spec.RepeatLen])
	}
	var sb dna.Builder
	sb.Grow(spec.Length)
	for _, c := range b {
		sb.Append(dna.Base(c))
	}
	return sb.Seq(), nil
}

// PaperDatasets returns the four synthetic stand-ins for Table I, in the
// paper's increasing-size order (HC-2 < HC-X < HC-14 < BI), scaled to run
// on one host. Lengths preserve the relative ordering; repeats scale with
// genome size.
func PaperDatasets() []Spec {
	return []Spec{
		{Name: "sim-HC2", Length: 200_000, Repeats: 12, RepeatLen: 300, Seed: 1002},
		{Name: "sim-HCX", Length: 400_000, Repeats: 24, RepeatLen: 300, Seed: 1023},
		{Name: "sim-HC14", Length: 800_000, Repeats: 48, RepeatLen: 300, Seed: 1014},
		{Name: "sim-BI", Length: 1_600_000, Repeats: 96, RepeatLen: 300, Seed: 1088},
	}
}
