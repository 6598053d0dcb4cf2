package analysis

// The CCC annotation verifier: checks the static model against the
// annotation contract the Table 2 policy (internal/ccc) depends on. The
// simulator's Thread API brackets every atomic it executes with the region
// callbacks the paper's LLVM pass would insert — so an atomic instruction
// only escapes its region when the workload routes a plain Load/Store
// through a SiteAtomic site (the modeled "missed annotation"), and a
// region-class confusion only arises when one site mixes access kinds or
// memory orders. Verify flags exactly those hazards.

import (
	"fmt"
	"sort"

	"repro/internal/ccc"
	"repro/internal/disasm"
	"repro/tmi/workload"
)

// Finding is one verifier diagnostic.
type Finding struct {
	Workload string
	// Rule names the violated rule: unannotated-atomic, kind-mismatch,
	// mixed-order, unbalanced-region, info-mismatch, unknown-pc,
	// lock-misuse, deadlock, interp-budget, fault, hang, validate.
	Rule   string
	Site   string
	PC     uint64
	Detail string
}

func (f Finding) String() string {
	if f.Site != "" {
		return fmt.Sprintf("%s: [%s] site %q (pc 0x%x): %s", f.Workload, f.Rule, f.Site, f.PC, f.Detail)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Workload, f.Rule, f.Detail)
}

// Verify checks the model and returns all findings, run-time ones
// included, in deterministic order. An empty slice means the workload
// honors the annotation contract.
func Verify(m *Model) []Finding {
	out := append([]Finding(nil), m.Findings...)

	pcs := make([]uint64, 0, len(m.Sites))
	for pc := range m.Sites {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	var atomicInstrs uint64 // atomic instructions executed in app code
	for _, pc := range pcs {
		sm := m.Sites[pc]
		si := sm.Info
		if si.Runtime {
			// Runtime-library sites execute below the annotation layer by
			// design; the pass never sees them.
			continue
		}
		if sm.Unknown {
			if sm.Accesses()+sm.StreamOps > 0 {
				out = append(out, siteFinding(m, pc, sm, "unknown-pc",
					"access through a PC absent from the site table; the detector cannot disassemble it (register sites via Env.Site)"))
			}
			continue
		}
		switch si.Kind {
		case disasm.KindAtomic:
			atomicInstrs += sm.Accesses()
			if n := sm.PlainLoads + sm.PlainStores; n > 0 {
				inter := ccc.Table2(ccc.ClassRegular, ccc.ClassAtomic)
				out = append(out, siteFinding(m, pc, sm, "unannotated-atomic", fmt.Sprintf(
					"%d plain access(es) through an atomic instruction site: the atomic executes outside any region callback, so its races fall into Table 2 case %d (%q semantics) instead of case 2",
					n, inter.Case, inter.Semantics)))
			}
		case disasm.KindLoad:
			if sm.PlainStores > 0 {
				out = append(out, siteFinding(m, pc, sm, "kind-mismatch", fmt.Sprintf(
					"%d store(s) through a load site: the detector would disassemble the PC as a read and misclassify sharing on its lines", sm.PlainStores)))
			}
			if sm.AtomicOps > 0 {
				out = append(out, siteFinding(m, pc, sm, "kind-mismatch", fmt.Sprintf(
					"%d atomic op(s) through a load site: the region brackets fire but the site table hides the write half of the RMW", sm.AtomicOps)))
			}
		case disasm.KindStore:
			if sm.PlainLoads > 0 {
				out = append(out, siteFinding(m, pc, sm, "kind-mismatch", fmt.Sprintf(
					"%d load(s) through a store site: the detector would count phantom writes and can flip a read-mostly line to false sharing", sm.PlainLoads)))
			}
			if sm.AtomicOps > 0 {
				out = append(out, siteFinding(m, pc, sm, "kind-mismatch", fmt.Sprintf(
					"%d atomic op(s) through a store site: the site table hides the read half of the RMW", sm.AtomicOps)))
			}
		}
		if relaxed := sm.Orders[workload.Relaxed]; relaxed > 0 {
			if strong := sm.AtomicOps - relaxed; strong > 0 {
				out = append(out, siteFinding(m, pc, sm, "mixed-order", fmt.Sprintf(
					"site executes both relaxed (%d) and stronger-order (%d) atomics: a static pass must assign one region class per instruction, so the relaxed executions would be over-serialized or the strong ones under-flushed",
					relaxed, strong)))
			}
		}
	}

	if atomicInstrs > 0 && !m.Info.UsesAtomics {
		out = append(out, Finding{Workload: m.Workload, Rule: "info-mismatch", Detail: fmt.Sprintf(
			"workload executes %d operation(s) at atomic instruction sites but Info.UsesAtomics is false; Sheriff-compatibility screening and Table 2 planning key off the flag", atomicInstrs)})
	}
	if m.AsmEnters > 0 && !m.Info.UsesAsm {
		out = append(out, Finding{Workload: m.Workload, Rule: "info-mismatch", Detail: fmt.Sprintf(
			"workload enters %d assembly region(s) but Info.UsesAsm is false", m.AsmEnters)})
	}
	return out
}

func siteFinding(m *Model, pc uint64, sm *SiteModel, rule, detail string) Finding {
	return Finding{
		Workload: m.Workload,
		Rule:     rule,
		Site:     sm.Info.Name,
		PC:       pc,
		Detail:   detail,
	}
}
