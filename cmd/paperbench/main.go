// Command paperbench regenerates every table and figure of the paper's
// evaluation (§V) on the synthetic stand-in datasets of
// genome.PaperDatasets. The rows come from internal/experiments, whose doc
// comments quote the paper's figures where it reports them.
//
// Usage:
//
//	paperbench                  # run everything at the default scale
//	paperbench -exp=fig12a      # one experiment
//	paperbench -scale=0.25      # smaller datasets (faster)
//
// Experiments: table1, fig12a, fig12b, table2, table3, table4, table5,
// n50growth, vertexcollapse, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppaassembler/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = genome.PaperDatasets sizes)")
		workers = flag.Int("workers", 4, "worker count for the non-scaling experiments")
	)
	flag.Parse()
	if err := run(strings.ToLower(*exp), *scale, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, workers int) error {
	all := exp == "all"
	out := os.Stdout
	hr := func(title string) { fmt.Fprintf(out, "\n=== %s ===\n", title) }

	if all || exp == "table1" {
		hr("Table I: datasets")
		if err := experiments.Table1(out, scale); err != nil {
			return err
		}
	}
	workerSweep := []int{1, 2, 4, 8, 16}
	if all || exp == "fig12a" {
		hr("Figure 12(a): execution time vs workers, sim-HC14 (simulated seconds)")
		d, err := experiments.LoadDataset("sim-HC14", scale)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig12(d, workerSweep)
		if err != nil {
			return err
		}
		experiments.PrintFig12(out, "# workers", workerSweep, rows)
	}
	if all || exp == "fig12b" {
		hr("Figure 12(b): execution time vs workers, sim-BI (simulated seconds)")
		d, err := experiments.LoadDataset("sim-BI", scale)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig12(d, workerSweep)
		if err != nil {
			return err
		}
		experiments.PrintFig12(out, "# workers", workerSweep, rows)
	}
	if all || exp == "table2" || exp == "table3" {
		var t2, t3 []experiments.LabelRow
		for _, name := range experiments.AllDatasetNames() {
			d, err := experiments.LoadDataset(name, scale)
			if err != nil {
				return err
			}
			if all || exp == "table2" {
				row, err := experiments.LabelComparison(d, workers, "kmer")
				if err != nil {
					return err
				}
				t2 = append(t2, row)
			}
			if all || exp == "table3" {
				row, err := experiments.LabelComparison(d, workers, "contig")
				if err != nil {
					return err
				}
				t3 = append(t3, row)
			}
		}
		if len(t2) > 0 {
			hr("Table II: LR vs S-V for labeling unambiguous k-mers")
			experiments.PrintLabelTable(out, "", t2)
		}
		if len(t3) > 0 {
			hr("Table III: LR vs S-V for labeling contigs")
			experiments.PrintLabelTable(out, "", t3)
		}
	}
	if all || exp == "table4" {
		hr("Table IV: quality comparison on sim-HC2 (with reference)")
		d, err := experiments.LoadDataset("sim-HC2", scale)
		if err != nil {
			return err
		}
		rows, err := experiments.QualityComparison(d, workers)
		if err != nil {
			return err
		}
		experiments.PrintQualityTable(out, "", rows)
	}
	if all || exp == "table5" {
		hr("Table V: quality comparison on sim-HC14 (no reference)")
		d, err := experiments.LoadDataset("sim-HC14", scale)
		if err != nil {
			return err
		}
		rows, err := experiments.QualityComparison(d, workers)
		if err != nil {
			return err
		}
		experiments.PrintQualityTable(out, "", rows)
	}
	if all || exp == "n50growth" {
		hr("§V: N50 growth from the second merge round (paper: 1074 -> 2070)")
		d, err := experiments.LoadDataset("sim-HC2", scale)
		if err != nil {
			return err
		}
		r1, final, err := experiments.N50Growth(d, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "N50 after round-1 merge: %d\nN50 after full workflow: %d (x%.2f)\n",
			r1, final, float64(final)/float64(max(r1, 1)))
	}
	if all || exp == "vertexcollapse" {
		hr("§V: vertex-count collapse (paper: 46.97M -> 1.00M -> 68k on HC-2)")
		d, err := experiments.LoadDataset("sim-HC2", scale)
		if err != nil {
			return err
		}
		kmers, mid, contigs, err := experiments.VertexCollapse(d, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "k-mer vertices: %d\nafter merging (ambiguous k-mers + contigs): %d\nfinal contigs: %d\n",
			kmers, mid, contigs)
	}
	switch exp {
	case "all", "table1", "fig12a", "fig12b", "table2", "table3", "table4", "table5", "n50growth", "vertexcollapse":
		return nil
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
