package harness

import (
	"fmt"

	"repro/internal/analysis"
	"repro/tmi"
)

// staticLayout scores the tmilint layout predictor against the dynamic
// PEBS/HITM detector across the repair suite: the static model records
// each workload's exact per-thread line footprints, while the
// dynamic run samples real accesses. Recall of the dynamically detected
// false-sharing lines should be 1.0 (the model sees every access the
// sampler can only sample); precision can drop below 1.0 on lines too cold
// for the sampler to accumulate MinRecords.
func staticLayout(o *Options) error {
	header(o, "Extension: static layout predictor vs dynamic detector (tmilint)")
	csv, err := csvFile(o, "staticlayout.csv")
	if err != nil {
		return err
	}
	defer csv.Close()
	csvLine(csv, "workload", "static_false", "dynamic_false", "common", "precision", "recall")
	fmt.Fprintf(o.Out, "%-14s %8s %8s %8s %10s %8s\n",
		"workload", "static", "dynamic", "common", "precision", "recall")
	cells := make([]*cell, len(fsNames))
	for i, name := range fsNames {
		cells[i] = o.submit(fsWorkload(name), tmi.Config{System: tmi.TMIDetect})
	}
	var sumP, sumR float64
	var n int
	for i, name := range fsNames {
		m, err := analysis.BuildModel(fsWorkload(name)(), analysis.Options{Seed: o.Seed})
		if err != nil {
			return err
		}
		rep, err := cells[i].mean()
		if err != nil {
			return err
		}
		acc := analysis.CompareFalseSharing(m, rep.Lines, analysis.DefaultMinAccesses)
		fmt.Fprintf(o.Out, "%-14s %8d %8d %8d %10.2f %8.2f\n",
			name, acc.StaticFalse, acc.DynamicFalse, acc.Common, acc.Precision, acc.Recall)
		csvLine(csv, name, acc.StaticFalse, acc.DynamicFalse, acc.Common, acc.Precision, acc.Recall)
		sumP += acc.Precision
		sumR += acc.Recall
		n++
	}
	fmt.Fprintf(o.Out, "%-14s %8s %8s %8s %10.2f %8.2f\n", "mean", "", "", "",
		sumP/float64(n), sumR/float64(n))
	fmt.Fprintf(o.Out, "\nthe static model folds exact byte footprints, so it never misses a line the\n")
	fmt.Fprintf(o.Out, "sampler confirms (recall 1.0); it over-predicts lines the sampler leaves below\n")
	fmt.Fprintf(o.Out, "its record threshold, which costs precision, not soundness\n")
	return nil
}
