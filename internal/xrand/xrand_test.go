package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/100 equal draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 500; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Errorf("bucket %d count %d deviates >8%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const draws = 200000
	var sum, sq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / draws
	variance := sq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(13)
	for trial := 0; trial < 200; trial++ {
		s := r.Sample(100, 10)
		if len(s) != 10 {
			t.Fatalf("Sample returned %d elements, want 10", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 100 || seen[v] {
				t.Fatalf("Sample element %d invalid or duplicated", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleAllWhenKExceedsN(t *testing.T) {
	r := New(17)
	s := r.Sample(5, 9)
	if len(s) != 5 {
		t.Fatalf("Sample(5,9) returned %d elements, want all 5", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatal("Sample(5,9) must return each index exactly once")
	}
}

func TestSampleUniform(t *testing.T) {
	r := New(23)
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(20, 5) {
			counts[v]++
		}
	}
	want := float64(trials) * 5 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Errorf("index %d chosen %d times, want ~%f", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(42)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream tracks parent: %d/100 collisions", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
