package cost

import (
	"testing"
	"testing/quick"
)

func TestSecondsScaling(t *testing.T) {
	m := Meter{SeqPages: 100, RandPages: 10, WritePage: 5, Rows: 1000, CPUOps: 500}
	before := m
	base := Desktop2005()
	s1 := base.Seconds(&m)
	s10 := base.WithScale(10).Seconds(&m)
	if s10 < s1*9.9 || s10 > s1*10.1 {
		t.Errorf("scaled seconds %v, want ~10x %v", s10, s1)
	}
	// Pricing reads the meter: estimate paths price shared meters
	// concurrently.
	if m != before {
		t.Errorf("Seconds changed its meter: %+v, was %+v", m, before)
	}
}

func TestFixedCostsUnscaled(t *testing.T) {
	m := Meter{FixedRand: 3, FixedSeq: 7}
	base := Desktop2005()
	s1 := base.Seconds(&m)
	s1000 := base.WithScale(1000).Seconds(&m)
	if s1 != s1000 {
		t.Errorf("fixed costs must not scale: %v vs %v", s1, s1000)
	}
	want := 3*base.RandPageSec + 7*base.SeqPageSec
	if s1 != want {
		t.Errorf("fixed seconds = %v, want %v", s1, want)
	}
}

func TestZeroScaleTreatedAsOne(t *testing.T) {
	m := Meter{SeqPages: 10}
	c := Model{SeqPageSec: 1}
	if got := c.Seconds(&m); got != 10 {
		t.Errorf("zero scale: %v, want 10", got)
	}
}

func TestMeterAddAndReset(t *testing.T) {
	a := Meter{SeqPages: 1, RandPages: 2, WritePage: 3, Rows: 4, CPUOps: 5, FixedRand: 6, FixedSeq: 7}
	var b Meter
	b.Add(a)
	b.Add(a)
	if b.SeqPages != 2 || b.RandPages != 4 || b.WritePage != 6 || b.Rows != 8 ||
		b.CPUOps != 10 || b.FixedRand != 12 || b.FixedSeq != 14 {
		t.Errorf("Add: %+v", b)
	}
	b.Reset()
	if b != (Meter{}) {
		t.Errorf("Reset: %+v", b)
	}
}

func TestSecondsAdditive(t *testing.T) {
	// Seconds(a) + Seconds(b) == Seconds(a+b): the clock is a linear
	// function of the counters.
	f := func(s1, r1, s2, r2 uint16) bool {
		a := Meter{SeqPages: int64(s1), RandPages: int64(r1)}
		b := Meter{SeqPages: int64(s2), RandPages: int64(r2)}
		var sum Meter
		sum.Add(a)
		sum.Add(b)
		c := Desktop2005().WithScale(3)
		lhs := c.Seconds(&a) + c.Seconds(&b)
		rhs := c.Seconds(&sum)
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9*(1+lhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagesForBytes(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {4096, 1}, {4097, 2}, {40960, 10},
	}
	for _, c := range cases {
		if got := PagesForBytes(c.bytes); got != c.want {
			t.Errorf("PagesForBytes(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// TestSpill pins the one spill rule the optimizer's estimates and the
// executor's meters share: held bytes over the budget at full scale
// (Scale 0 read as 1) write and re-read the pages of the held and the
// reread bytes; a budget of zero or less never spills.
func TestSpill(t *testing.T) {
	for _, c := range []struct {
		name              string
		scale             float64
		mem, held, reread int64
		wantPages         int64
	}{
		{"under budget", 1, 10_000, 10_000, 50_000, 0},
		{"over budget", 1, 10_000, 10_001, 50_000, 3 + 13},
		{"over once scaled", 1000, 1_000_000, 4097, 0, 2},
		{"zero scale reads as one", 0, 10_000, 10_001, 0, 3},
		{"no budget", 1000, 0, 1 << 40, 1 << 40, 0},
		{"negative budget", 1, -1, 1, 0, 0},
	} {
		var m Meter
		m.Spill(Desktop2005().WithScale(c.scale), c.mem, c.held, c.reread)
		if want := (Meter{WritePage: c.wantPages, SeqPages: c.wantPages}); m != want {
			t.Errorf("%s: %+v, want %+v", c.name, m, want)
		}
	}
}

func TestDesktop2005Ordering(t *testing.T) {
	c := Desktop2005()
	if !(c.RandPageSec > c.WritePageSec && c.WritePageSec > c.SeqPageSec) {
		t.Error("random > write > sequential page costs expected")
	}
	if !(c.RowSec > c.CPUOpSec) {
		t.Error("per-row cost should exceed per-op cost")
	}
}

// Reset zeroes all counters.
func (m *Meter) Reset() { *m = Meter{} }
