package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/val"
)

// planDigests pins, per advise case, one digest for each pool query: its
// built plan under P and under the case's R, and its what-if measures
// H(q, R) and H(q, 1C) taken from P. A digest is the first four bytes of
// the SHA-256 of that query's dump (planDump), in pool order.
var planDigests = map[string]string{
	"A/NREF2J": "54359ab8 246eb15a c13b87d1 e39f274b 2b74873c 23e394e4 4f8ea552 7b1066d5 " +
		"ff69a823 fec0a503 4a628b57 e3047b32 4621e07a 5a9c1366 aa3c2de4 28a32567 " +
		"f74973a3 c954c348 3db56271 c48ce786 f3a3f7b4 7e79e587 483b0ba3 2571ff7d " +
		"055a8abc d11bd23b 4340bef0 2d42fc12 649b0fff e1fdaf4d 17662903 85c7417d " +
		"eccbcce2 a0a41ba8 e4d5ff4c eeec4287 a62918f1 384fdb14 6efe2375 81467088 " +
		"40b5412d b8b46c68 2d32c1be 6f5aed9a d2dbf435 f079fd89 830e65b4 05871c5a " +
		"407cf42a c08ebd08",
	"B/NREF2J": "ced2af7a e96d1a0d c27538b0 d69ce486 0ae18ba9 4ee025cb 2cc9ca8c 00f76c12 " +
		"2d1d084b 34b299f7 cd8abb05 aa3683fe 6f170550 ede2ab21 09401bf3 98191518 " +
		"402e97bb 047ba5c6 6780727d 7f132d1a 89ad9ac6 993f9122 e225fdb3 9d27adaa " +
		"dece8163 a6afed99 c98ee792 06c0a2f0 122d4bf5 1c0f8101 34f3d272 bfb110c5 " +
		"e8e97175 29412715 3691b005 679ca810 7c8dcf0c f174ffff 17082c21 705ae0ff " +
		"c159158f b78a1fc7 6ebc0ed0 f851503b cb38a658 65b23ee0 15fa9ff4 01e69404 " +
		"81292d7c e5c54a05",
	"B/NREF3J": "c39764aa 9c693c31 bcd71a42 9ead0bf7 40bef0be 90d1de4f 5a54890a e6c96fab " +
		"b8b2e85d ea89d01c 9b0b57a8 1ea5a359 50f1068b e5a0eb73 eb213dee 20b7d91a " +
		"1a4b3f77 a1b93e9b d5349aa4 ea719e66 922bf9a9 0884bd09 25479d6d 2f732985 " +
		"70c0966f aa91cb45 1bce75b6 a59f5ede fe3298f1 1acc52a8 d536c830 a4b38e30 " +
		"3889e7cf 1cd3d20d a3619fd9 39f7383e d9ed9c63 6955c3f3 e3aa6761 78043c5f " +
		"b5b54613 3274096d 72b88c70 f4c6a210 6b29e3d2 f433ff9d a57273c9 0ec00579 " +
		"c7ec7187 2b388b41",
	"C/SkTH3J": "21c35283 7e1c9b17 d1136124 42417cb3 78375110 8751bb54 fc77bb53 136056a3 " +
		"3cf76868 a5f94f36 78ef0cdc f0bc3aad 09a286fe ffcb82ad c6f7b02b 149c9be9 " +
		"d3d727f3 44b63c4d a18976c1 5563ccdf 6b1efffd d4c8d45c f2529612 dc480def " +
		"2193817e 171573bf 6725769d b839d664 7afb9c97 cc0c39ae 77cc47eb daafa092 " +
		"1f5bb730 24e2ea34 2e1058c8 29a231cd fefbaf70 7a9df319 01dbbb4c f91bc2b2 " +
		"08deeb5e ee1c4094 42b8c1f3 105987c1 ca6de666 8e605e84 cb0a2b6d 225f0d08 " +
		"19691655 994a76df",
	"C/UnTH3J": "5c498b7f 9a73503e 9cdab2b8 0026a3d6 14f1f7db 90e1fe60 69e63599 c7ba2b22 " +
		"baebf1b8 f1a46043 c4d1d25e bb5665dc fdeff6ac d97849d6 910591ea 0e8cbf34 " +
		"c8307b82 14a0d931 09f033fc fce6f171 4a157686 1ac86b5a 5d4ddb01 dd06a146 " +
		"1694f744 a8ca84ee 7e7b469e 04f8fe74 01b4f803 00f7d9f3 f1d4f311 b3cbc4b3 " +
		"e463e058 ce4d4ace 4a4c761b b96a0ba1 fbab7a48 3a358a3f 47802f48 6a79aecb " +
		"8432c514 6c29ab1c 23a43f97 6bd05d10 1130ec38 cba5669b cdad6e12 8fc2978c " +
		"5b55004a f3182a8e",
}

// TestPlanDigests is the fence for optimizer changes that must not move a
// plan: every node field of every plan the advise cases build, and every
// estimate their what-if sessions return, renders to the digests above.
// The lab is the advise benchmark's: scale 0.0002, seed 42, 50-query
// pools. Recommendations run sequentially (ROADMAP item 1: parallel ones
// may differ).
func TestPlanDigests(t *testing.T) {
	l := NewLab(0.0002, 42)
	l.WorkloadSize = 50
	l.Parallelism = 1
	for _, c := range []struct{ sys, family string }{
		{"A", "NREF2J"}, {"B", "NREF2J"}, {"B", "NREF3J"}, {"C", "SkTH3J"}, {"C", "UnTH3J"},
	} {
		name := c.sys + "/" + c.family
		dumps := planDump(t, l, c.sys, c.family)
		got := make([]string, len(dumps))
		for i, d := range dumps {
			sum := sha256.Sum256([]byte(d))
			got[i] = hex.EncodeToString(sum[:4])
		}
		want := strings.Fields(planDigests[name])
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Errorf("%s: query %d differs:\n%s\ndigests now: %q", name, i, dumps[i], strings.Join(got, " "))
				break
			}
		}
		if len(want) > len(got) {
			t.Errorf("%s: %d queries, want %d", name, len(got), len(want))
		}
	}
}

// planDump renders, for each pool query of the case, its plans under P and
// R and its what-if measures under R and 1C.
func planDump(t *testing.T, l *Lab, sys, family string) []string {
	t.Helper()
	db := dbOfFamily(family)
	r, err := l.Recommendation(sys, family)
	if err != nil {
		t.Fatalf("%s/%s: %v", sys, family, err)
	}
	one, err := l.Config(sys, db, "1C")
	if err != nil {
		t.Fatal(err)
	}
	sqls := l.Workload(sys, family).SQLs()
	e := l.Engine(sys, db)
	dumps := make([]strings.Builder, len(sqls))
	for _, cfg := range []string{"P", "R:" + family} {
		if err := l.ApplyNamed(sys, db, cfg); err != nil {
			t.Fatal(err)
		}
		for i, s := range sqls {
			p, err := e.Prepare(s)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			fmt.Fprintf(&dumps[i], "plan under %s:\n", cfg)
			dumpPlan(&dumps[i], p)
		}
	}
	if err := l.ApplyNamed(sys, db, "P"); err != nil {
		t.Fatal(err)
	}
	w := e.NewWhatIf()
	for i, s := range sqls {
		q, err := e.AnalyzeSQL(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []struct {
			name string
			c    func() (engine.Measure, error)
		}{
			{"H(q, R)", func() (engine.Measure, error) { return w.Estimate(q, r) }},
			{"H(q, 1C)", func() (engine.Measure, error) { return w.Estimate(q, one) }},
		} {
			m, err := h.c()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&dumps[i], "%s: %s timedout=%t %+v\n", h.name, gfloat(m.Seconds), m.TimedOut, m.Meter)
		}
	}
	out := make([]string, len(sqls))
	for i := range dumps {
		out[i] = sqls[i] + "\n" + dumps[i].String()
	}
	return out
}

func gfloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func dumpEst(e plan.Est) string {
	return fmt.Sprintf("est{rows=%s %+v s=%s}", gfloat(e.Rows), e.Meter, gfloat(e.Seconds))
}

func dumpVal(v val.Value) string {
	return fmt.Sprintf("%d/%d/%s/%q", v.K, v.I, gfloat(v.F), v.Str)
}

func dumpVals(vs []val.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = dumpVal(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func dumpFilters(fs []plan.Filter) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%d%s%s", f.Offset, f.Op, dumpVal(f.Value))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func ixName(ix *plan.IndexInfo) string {
	if ix == nil {
		return "-"
	}
	return fmt.Sprintf("%s(hypo=%t)", ix.Name, ix.Hypothetical)
}

// dumpPlan renders every field of every node of the plan, one node per
// line, children indented.
func dumpPlan(sb *strings.Builder, p *plan.Plan) {
	fmt.Fprintf(sb, "plan %s width=%d\n", dumpEst(p.Est), p.Layout.Width)
	for i, is := range p.InSets {
		fmt.Fprintf(sb, " inset[%d] index=%s %s\n", i, ixName(is.Index), dumpEst(is.Est))
	}
	dumpNode(sb, p.Root, 1)
}

func dumpNode(sb *strings.Builder, n plan.Node, depth int) {
	indent := strings.Repeat(" ", depth)
	sb.WriteString(indent)
	switch n := n.(type) {
	case *plan.SeqScan:
		fmt.Fprintf(sb, "SeqScan tab=%d %s filters=%s ins=%v %s\n",
			n.Tab, n.Info.Table.Name, dumpFilters(n.Filters), n.Ins, dumpEst(n.Est))
	case *plan.IndexScan:
		rng := "-"
		if n.Range != nil {
			rng = n.Range.Op + dumpVal(n.Range.Value)
		}
		fmt.Fprintf(sb, "IndexScan tab=%d %s index=%s eq=%s range=%s drive=%d filters=%s ins=%v covering=%t ridsort=%t %s\n",
			n.Tab, n.Info.Table.Name, ixName(n.Index), dumpVals(n.EqVals), rng, n.DriveInSet,
			dumpFilters(n.Filters), n.Ins, n.Covering, n.RidSort, dumpEst(n.Est))
	case *plan.ViewScan:
		fmt.Fprintf(sb, "ViewScan tabs=%v %s cols=%v index=%s eq=%s filters=%s ins=%v %s\n",
			n.Tabs, n.View.Def.Name, n.ColOffsets, ixName(n.Index), dumpVals(n.EqVals),
			dumpFilters(n.Filters), n.Ins, dumpEst(n.Est))
	case *plan.HashJoin:
		fmt.Fprintf(sb, "HashJoin build=%v probe=%v width=%d %s\n", n.BuildKeys, n.ProbeKeys, n.BuildWidth, dumpEst(n.Est))
		dumpNode(sb, n.Build, depth+1)
		dumpNode(sb, n.Probe, depth+1)
	case *plan.IndexJoin:
		binds := make([]string, len(n.Binds))
		for i, b := range n.Binds {
			if b.Const != nil {
				binds[i] = "const " + dumpVal(*b.Const)
			} else {
				binds[i] = "outer " + strconv.Itoa(b.OuterOffset)
			}
		}
		fmt.Fprintf(sb, "IndexJoin tab=%d %s index=%s binds=%v filters=%s ins=%v posteq=%v covering=%t %s\n",
			n.Tab, n.Info.Table.Name, ixName(n.Index), binds, dumpFilters(n.Filters), n.Ins, n.PostEq,
			n.Covering, dumpEst(n.Est))
		dumpNode(sb, n.Outer, depth+1)
	case *plan.MergeJoin:
		fmt.Fprintf(sb, "MergeJoin %s\n", dumpEst(n.Est))
		for _, side := range []plan.MergeSide{n.L, n.R} {
			preds := make([]string, len(side.KeyPreds))
			for i, kp := range side.KeyPreds {
				preds[i] = kp.Op + dumpVal(kp.Value)
			}
			fmt.Fprintf(sb, "%s side tab=%d %s index=%s keypreds=%v keyins=%v post=%s postins=%v covering=%t\n",
				indent, side.Tab, side.Info.Table.Name, ixName(side.Index), preds, side.KeyIns,
				dumpFilters(side.PostFilters), side.PostIns, side.Covering)
		}
	case *plan.HashAgg:
		fmt.Fprintf(sb, "HashAgg groups=%v aggs=%v width=%d %s\n", n.Groups, n.Aggs, n.GroupWidth, dumpEst(n.Est))
		dumpNode(sb, n.Input, depth+1)
	case *plan.Project:
		fmt.Fprintf(sb, "Project offsets=%v %s\n", n.Offsets, dumpEst(n.Est))
		dumpNode(sb, n.Input, depth+1)
	default:
		fmt.Fprintf(sb, "%T\n", n)
	}
}
