package cost

import (
	"testing"
	"testing/quick"
)

func TestSecondsScaling(t *testing.T) {
	m := Meter{SeqPages: 100, RandPages: 10, WritePage: 5, Rows: 1000, CPUOps: 500}
	base := Desktop2005()
	s1 := base.Seconds(&m)
	s10 := base.WithScale(10).Seconds(&m)
	if s10 < s1*9.9 || s10 > s1*10.1 {
		t.Errorf("scaled seconds %v, want ~10x %v", s10, s1)
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
