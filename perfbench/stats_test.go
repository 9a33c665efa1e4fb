package main

import "testing"

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail bool
	}{
		{1, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.tail || p != c.p {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.tail)
		}
		if ok && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, p, beyond(p, c.n))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	s := summarize(xs)
	if s.N != 1000 || s.Median != 500.5 || s.TailP != 99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v, want N=1000 median=500.5 p99=990", s)
	}
	if got := beyond(s.TailP, s.N); got != 10 {
		t.Fatalf("samples beyond p99 of 1000 = %d, want 10", got)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
	small := summarize([]float64{3, 1, 2})
	if small.Median != 2 || small.TailP != 0 {
		t.Fatalf("summarize of 3 samples = %+v, want median 2 and no tail", small)
	}
}

func TestMedianEven(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median of nothing = %v, want 0", m)
	}
}
