package workloads

import (
	"fmt"
	"sort"

	"repro/tmi/workload"
)

// Suite returns the 35-workload detection suite of Figures 7 and 8, in the
// paper's figure order. False-sharing benchmarks come in their buggy
// (published) layout.
func Suite() []workload.Workload {
	return []workload.Workload{
		Blackscholes(), Bodytrack(), Canneal(), Dedup(), Facesim(), Ferret(),
		Fluidanimate(), Streamcluster(), Swaptions(),
		Histogram(VariantFS), HistogramFS(VariantFS), Kmeans(),
		LinearRegression(VariantFS), Matrix(), PCA(), ReverseIndex(),
		Stringmatch(VariantFS), Wordcount(),
		Barnes(), FFT(), FMM(), LuCB(), LuNCB(VariantFS), OceanCP(),
		OceanNCP(), Radiosity(), Radix(), Raytrace(), Volrend(),
		WaterNSquare(), WaterSpatial(),
		Leveldb(VariantFS), Spinlockpool(VariantFS), ShptrRelaxed(VariantFS),
		ShptrLock(VariantFS),
	}
}

// FSSuite returns the repair suite of Figure 9 / Table 3: every benchmark
// with known false sharing, in its buggy layout.
func FSSuite() []workload.Workload {
	return []workload.Workload{
		Histogram(VariantFS), HistogramFS(VariantFS),
		LinearRegression(VariantFS), Stringmatch(VariantFS), LuNCB(VariantFS),
		Leveldb(VariantFS), Spinlockpool(VariantFS), ShptrRelaxed(VariantFS),
		ShptrLock(VariantFS),
	}
}

// Manual returns the manually fixed variant of an FS-suite workload, by its
// buggy-variant name.
func Manual(name string) (workload.Workload, error) {
	switch name {
	case "histogram":
		return Histogram(VariantManual), nil
	case "histogramfs":
		return HistogramFS(VariantManual), nil
	case "lreg":
		return LinearRegression(VariantManual), nil
	case "stringmatch":
		return Stringmatch(VariantManual), nil
	case "lu-ncb":
		return LuNCB(VariantManual), nil
	case "leveldb":
		return Leveldb(VariantManual), nil
	case "spinlockpool":
		return Spinlockpool(VariantManual), nil
	case "shptr-relaxed":
		return ShptrRelaxed(VariantManual), nil
	case "shptr-lock":
		return ShptrLock(VariantManual), nil
	}
	return nil, fmt.Errorf("workloads: no manual fix for %q", name)
}

// ByName resolves any catalog workload (suite members, manual variants, and
// the consistency kernels).
func ByName(name string) (workload.Workload, error) {
	if w := litmusByName(name); w != nil {
		return w, nil
	}
	extras := []workload.Workload{
		Leveldb(VariantClean), WordTearing(false), WordTearing(true),
		CannealSwap(), CholeskyFlag(), Misannotated(),
	}
	for _, w := range Suite() {
		if w.Name() == name {
			return w, nil
		}
	}
	for _, w := range extras {
		if w.Name() == name {
			return w, nil
		}
	}
	if w, err := Manual(trimManual(name)); err == nil && w.Name() == name {
		return w, nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (see Names())", name)
}

func trimManual(name string) string {
	const suffix = "-manual"
	if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
		return name[:len(name)-len(suffix)]
	}
	return name
}

// Names lists every resolvable workload name, sorted.
func Names() []string {
	seen := map[string]bool{}
	for _, w := range Suite() {
		seen[w.Name()] = true
	}
	for _, n := range []string{
		"leveldb-clean", "wordtear", "wordtear-asm", "canneal-swap",
		"cholesky-flag",
	} {
		seen[n] = true
	}
	for _, s := range litmusSpecs {
		seen[s.name] = true
	}
	for _, w := range FSSuite() {
		seen[w.Name()+"-manual"] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
