package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatal("Intn with n<=0 should return 0")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %f, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean = %f, want ~1", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			count++
		}
	}
	p := float64(count) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %f", p)
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRNG(42)
	fork := a.Fork()
	// Draw from fork; the parent's subsequent stream must be unaffected
	// by HOW MANY draws the fork makes.
	b := NewRNG(42)
	_ = b.Fork()
	for i := 0; i < 100; i++ {
		fork.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork draws perturbed parent stream")
		}
	}
}

func TestShufflePermutation(t *testing.T) {
	r := NewRNG(11)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// TestRNGSkip: Skip(n) leaves the stream where n Bool calls would, for
// the next Uint64, Float64 and NormFloat64, and leaves a pending normal
// spare pending.
func TestRNGSkip(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 17, 1000} {
		for _, spare := range []bool{false, true} {
			skipped, drawn := NewRNG(n+9), NewRNG(n+9)
			if spare {
				skipped.NormFloat64()
				drawn.NormFloat64()
			}
			skipped.Skip(n)
			for range n {
				drawn.Bool(0.5)
			}
			if s, d := skipped.NormFloat64(), drawn.NormFloat64(); s != d {
				t.Fatalf("n=%d spare=%v: NormFloat64 %v after Skip, %v after draws", n, spare, s, d)
			}
			if s, d := skipped.Float64(), drawn.Float64(); s != d {
				t.Fatalf("n=%d spare=%v: Float64 %v after Skip, %v after draws", n, spare, s, d)
			}
			if s, d := skipped.Uint64(), drawn.Uint64(); s != d {
				t.Fatalf("n=%d spare=%v: Uint64 %x after Skip, %x after draws", n, spare, s, d)
			}
		}
	}
}
