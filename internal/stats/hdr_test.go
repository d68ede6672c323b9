package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if _, ok := h.Quantile(0.99); ok {
		t.Fatal("empty histogram reported a quantile")
	}
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zeroed: count=%d max=%v mean=%v", h.Count(), h.Max(), h.Mean())
	}
}

// TestHistQuantileAccuracy checks the log-linear layout's contract: every
// quantile is within the 1/histSub relative error of the exact value, and
// never below it (bucket upper bounds only overestimate).
func TestHistQuantileAccuracy(t *testing.T) {
	rng := NewRNG(11)
	var h Hist
	exact := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over 2 µs .. 2 s: exercises many octaves.
		v := 2e-6 * math.Pow(1e6, rng.Float64())
		h.Record(v)
		exact = append(exact, v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("q=%v: not ok", q)
		}
		rank := int(math.Ceil(q*float64(len(exact)))) - 1
		if rank < 0 {
			rank = 0
		}
		want := exact[rank]
		if got < want*(1-1e-12) {
			t.Errorf("q=%v: got %v below exact %v", q, got, want)
		}
		if got > want*(1+2.0/histSub) {
			t.Errorf("q=%v: got %v, exact %v — beyond the %v relative bound",
				q, got, want, 2.0/histSub)
		}
	}
	if got, _ := h.Quantile(1); got != h.Max() {
		t.Errorf("q=1 returned %v, want exact max %v", got, h.Max())
	}
}

func TestHistUnderOverflow(t *testing.T) {
	var h Hist
	h.Record(1e-9)       // below histMin
	h.Record(1e9)        // beyond the top octave
	h.Record(math.NaN()) // clock anomaly
	h.Record(-1)         // clock anomaly
	if h.Count() != 4 {
		t.Fatalf("count %d, want 4", h.Count())
	}
	if got, _ := h.Quantile(0.01); got > histMin {
		// The three sub-histMin observations land in the underflow bucket,
		// whose bound is the minimum resolvable value.
		t.Errorf("low quantile %v, want <= %v", got, histMin)
	}
	if got, _ := h.Quantile(1); got != 1e9 {
		t.Errorf("q=1 %v, want the exact max 1e9", got)
	}
	// Values whose ratio to histMin overflows float64 go to the overflow
	// bucket too, and the top quantile is still the exact maximum.
	for _, v := range []float64{math.MaxFloat64, math.Inf(1)} {
		h.Record(v)
		if got, _ := h.Quantile(1); got != v {
			t.Errorf("after Record(%v): q=1 %v, want %v", v, got, v)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count %d, want 6", h.Count())
	}
}

func TestHistMergeExact(t *testing.T) {
	rng := NewRNG(7)
	var all, a, b Hist
	for i := 0; i < 5000; i++ {
		v := math.Abs(rng.Normal(0.01, 0.005))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Max() != all.Max() || a.Min() != all.Min() {
		t.Fatalf("merge lost mass: count %d vs %d", a.count, all.count)
	}
	if math.Abs(a.Sum()-all.Sum()) > 1e-9*all.Sum() {
		t.Fatalf("merge sum %v vs %v", a.Sum(), all.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		ga, _ := a.Quantile(q)
		gb, _ := all.Quantile(q)
		if ga != gb {
			t.Errorf("q=%v: merged %v != direct %v", q, ga, gb)
		}
	}
}

func TestHistMergeIntoEmpty(t *testing.T) {
	var a, b Hist
	b.Record(0.25)
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != 1 || a.Max() != 0.25 || a.Min() != 0.25 {
		t.Fatalf("merge into empty: count=%d max=%v min=%v", a.Count(), a.Max(), a.Min())
	}
}

// TestHistRecordZeroAlloc is the load-generator requirement: recording must
// not allocate, or the harness would distort the tail it measures.
func TestHistRecordZeroAlloc(t *testing.T) {
	var h Hist
	v := 0.001
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v *= 1.0001
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

// histFuzzValues decodes the fuzz input as little-endian float64 bit
// patterns, 8 bytes each; a short tail is ignored.
func histFuzzValues(data []byte) []float64 {
	vs := make([]float64, 0, len(data)/8)
	for ; len(data) >= 8; data = data[8:] {
		vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return vs
}

// FuzzHistRecord: Record takes any float64 without panicking, Count counts
// every record, quantiles stay inside [Min, Max] and never decrease in q,
// and merging two halves answers exactly like one Hist that saw it all.
func FuzzHistRecord(f *testing.F) {
	seeds := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0, histMin}
	var all []byte
	for _, v := range seeds {
		one := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
		f.Add(one)
		all = append(all, one...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := histFuzzValues(data)
		var whole, lo, hi Hist
		for i, v := range vs {
			whole.Record(v)
			if i < len(vs)/2 {
				lo.Record(v)
			} else {
				hi.Record(v)
			}
		}
		if whole.Count() != uint64(len(vs)) {
			t.Fatalf("count %d after %d records", whole.Count(), len(vs))
		}
		lo.Merge(&hi)
		if lo.Count() != whole.Count() || lo.Min() != whole.Min() || lo.Max() != whole.Max() {
			t.Fatalf("merged count/min/max %d/%v/%v, direct %d/%v/%v",
				lo.Count(), lo.Min(), lo.Max(), whole.Count(), whole.Min(), whole.Max())
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got, ok := whole.Quantile(q)
			if ok != (len(vs) > 0) {
				t.Fatalf("q=%v: ok=%v with %d records", q, ok, len(vs))
			}
			if !ok {
				continue
			}
			if got < whole.Min() || got > whole.Max() {
				t.Errorf("q=%v: %v outside [%v, %v]", q, got, whole.Min(), whole.Max())
			}
			if got < prev {
				t.Errorf("q=%v: %v below the previous quantile %v", q, got, prev)
			}
			prev = got
			if merged, _ := lo.Quantile(q); merged != got {
				t.Errorf("q=%v: merged halves %v, direct %v", q, merged, got)
			}
		}
	})
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i%1000) * 1e-5)
	}
}
