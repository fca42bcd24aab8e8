package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
)

// meterDigests pins, per advise case, one digest for each of the first
// 20 pool queries: its result and meter under P, 1C and the case's R at
// the lab timeout, then, at ¼, ½ and ¾ of that run's seconds, its result
// and meter or "timed out". A digest is the first four bytes of the
// SHA-256 of that query's dump (meterDump), in pool order.
var meterDigests = map[string]string{
	"A/NREF2J": "233d925b 42139e1b 3c1f3330 8f7caf3d 96f68736 a3bb5d6a 5f86da6d c672866b " +
		"353ce3b6 e2b4708c 5a151560 6e65dc01 ba71b5dd fbce5475 4dfcfbb4 40ee9b3e " +
		"8092be81 be4652f1 08126e54 40b68928",
	"B/NREF2J": "233d925b 42139e1b 3c1f3330 8f7caf3d 96f68736 a3bb5d6a 5f86da6d c672866b " +
		"353ce3b6 faeb1268 cbb5c5ab 4dc6004c 56ea38e0 2c855bc7 4dfcfbb4 40ee9b3e " +
		"71cf19bc 882c53eb b8caf392 00f476c2",
	"B/NREF3J": "b94a38ba 92e44bc0 cfddc472 af9c99e7 51568ed4 12940be6 d17fe134 4b4ccffd " +
		"d629a061 02299477 2e3a7eb5 b407fc56 3dbe8126 2ba71dfc 09c55a97 00a6bfd6 " +
		"bdb8e8b0 4328e375 ab098c0a d14db6ea",
	"C/SkTH3J": "35ff2993 0a7d3ee8 a04d2f1a 6db29a5e 40ebce4f f46a7e2d 1a3c71a2 707d2471 " +
		"a3ff5caa 361a384a 46d71d77 c140d5ab 11e0b091 b230bd86 d72605b6 8bb1ffee " +
		"10f5f568 5d0aaa8e 85ad24d9 ebf2f5c9",
	"C/UnTH3J": "50738bef 4c40590d e6993378 ae6f739f 86ddef8d 051f3cae c3a0549e 9c5ef759 " +
		"dbeb6cc8 0a31edd9 b1dbeabe 78643edb 139a7b85 767af879 6c80ac68 c89a2b6c " +
		"0cd5a71b d6edec03 d86a6621 3f9c01b6",
}

// TestMeterDigests is the fence for executor changes that must not move
// a measure: every completed run of every advise-case query, under three
// configurations and four limits, renders to the digests above. The lab
// is TestPlanDigests'. A run that times out is recorded as such, without
// its partial meter.
func TestMeterDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("runs every advise-case query twelve times; too slow under -race")
	}
	if testing.Short() {
		t.Skip("runs every advise-case query twelve times; skipped with -short")
	}
	l := NewLab(0.0002, 42)
	l.WorkloadSize = 50
	l.Parallelism = 1
	for _, c := range []struct{ sys, family string }{
		{"A", "NREF2J"}, {"B", "NREF2J"}, {"B", "NREF3J"}, {"C", "SkTH3J"}, {"C", "UnTH3J"},
	} {
		name := c.sys + "/" + c.family
		dumps := meterDump(t, l, c.sys, c.family)
		got := make([]string, len(dumps))
		for i, d := range dumps {
			sum := sha256.Sum256([]byte(d))
			got[i] = hex.EncodeToString(sum[:4])
		}
		want := strings.Fields(meterDigests[name])
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

// meterDump renders, for each pool query of the case, its runs under P,
// 1C and R.
func meterDump(t *testing.T, l *Lab, sys, family string) []string {
	t.Helper()
	db := dbOfFamily(family)
	sqls := l.Workload(sys, family).SQLs()[:20]
	dumps := make([]strings.Builder, len(sqls))
	for _, cfg := range []string{"P", "1C", "R:" + family} {
		c, err := l.configured(sys, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sqls {
			res, m, err := c.e.Run(s, Timeout)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			fmt.Fprintf(&dumps[i], "under %s: ", cfg)
			dumpRun(&dumps[i], res, m)
			for _, f := range []float64{0.25, 0.5, 0.75} {
				res, pm, err := c.e.Run(s, f*m.Seconds)
				if err != nil {
					t.Fatalf("%s at %v of its seconds: %v", s, f, err)
				}
				fmt.Fprintf(&dumps[i], " at %v: ", f)
				if pm.TimedOut {
					dumps[i].WriteString("timed out\n")
				} else {
					dumpRun(&dumps[i], res, pm)
				}
			}
		}
	}
	out := make([]string, len(sqls))
	for i := range dumps {
		out[i] = sqls[i] + "\n" + dumps[i].String()
	}
	return out
}

// dumpRun renders one run's seconds, meter and result rows.
func dumpRun(sb *strings.Builder, res *exec.Result, m engine.Measure) {
	fmt.Fprintf(sb, "%s timedout=%t %+v\n", gfloat(m.Seconds), m.TimedOut, m.Meter)
	if res == nil {
		return
	}
	fmt.Fprintf(sb, "%q\n", res.Cols)
	for _, r := range res.Rows {
		fmt.Fprintf(sb, "%q\n", r.Key())
	}
}
