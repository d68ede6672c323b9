package mat

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// normalEqFuzzRows encodes rows of (a0, a1, w, b) as the little-endian
// float64 bytes FuzzNormalEq decodes.
func normalEqFuzzRows(rows ...[4]float64) []byte {
	var out []byte
	for _, r := range rows {
		for _, v := range r {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzNormalEq runs the width-2 kernel and the any-width row loop on the
// same rows, weights and right-hand sides: they must produce the same Gram
// and rhs bits, or fail with the same error on the same row. Each 32 bytes
// are one row (a0, a1, w, b); unit=true passes nil weights.
func FuzzNormalEq(f *testing.F) {
	nan := math.NaN()
	f.Add(normalEqFuzzRows(
		[4]float64{1.5, -0.25, 0.75, 2},
		[4]float64{-3, 0.125, 1, -0.5},
		[4]float64{0.2, 7, 0.01, 1e-3},
	), false)
	f.Add(normalEqFuzzRows( // (w·a1)·a0 and (w·a0)·a1 differ in the last bit
		[4]float64{0.2, 7, 0.01, 1e-3},
	), false)
	f.Add(normalEqFuzzRows( // exact-zero entries and right-hand sides
		[4]float64{0, 1, 1, 0},
		[4]float64{2, 0, 1, 3},
		[4]float64{0, 0, 1, 1},
		[4]float64{-1, 4, 0.5, 0},
	), false)
	f.Add(normalEqFuzzRows( // zero weights
		[4]float64{1, 2, 0, 3},
		[4]float64{4, 5, 0, 6},
		[4]float64{-1, 0.5, 2, 1},
	), false)
	f.Add(normalEqFuzzRows( // nil weights: the w column is ignored
		[4]float64{1, 2, nan, 3},
		[4]float64{0, -5, -1, 6},
		[4]float64{0.3, 0, 0, 0},
	), true)
	f.Add(normalEqFuzzRows( // a negative weight on row 1
		[4]float64{1, 2, 1, 3},
		[4]float64{4, 5, -1, 6},
		[4]float64{7, 8, 1, 9},
	), false)
	f.Add(normalEqFuzzRows( // a NaN weight on row 2
		[4]float64{1, 2, 1, 3},
		[4]float64{4, 5, 0, 6},
		[4]float64{7, 8, nan, 9},
	), false)
	f.Add(normalEqFuzzRows( // non-finite entries propagate alike
		[4]float64{math.Inf(1), 1, 1, 2},
		[4]float64{nan, 0, 1, math.Inf(-1)},
	), false)
	f.Fuzz(func(t *testing.T, data []byte, unit bool) {
		n := len(data) / 32
		if n == 0 {
			return // NewDense takes no empty matrix
		}
		a := NewDense(n, 2)
		w := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			var v [4]float64
			for j := range v {
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[32*i+8*j:]))
			}
			a.Set(i, 0, v[0])
			a.Set(i, 1, v[1])
			w[i], b[i] = v[2], v[3]
		}
		if unit {
			w = nil
		}
		kg, kr := NewDense(2, 2), make([]float64, 2)
		lg, lr := NewDense(2, 2), make([]float64, 2)
		kerr := a.normalEq2(kg, kr, w, b)
		lerr := a.normalEqRows(lg, lr, w, b)
		if (kerr == nil) != (lerr == nil) || (kerr != nil && kerr.Error() != lerr.Error()) {
			t.Fatalf("kernel err %v, row loop err %v", kerr, lerr)
		}
		if kerr != nil {
			if !errors.Is(kerr, ErrShape) {
				t.Fatalf("bad weight err %v, want ErrShape", kerr)
			}
			return
		}
		for i := range kg.data {
			if math.Float64bits(kg.data[i]) != math.Float64bits(lg.data[i]) {
				t.Fatalf("gram[%d] = %v, row loop %v", i, kg.data[i], lg.data[i])
			}
		}
		for i := range kr {
			if math.Float64bits(kr[i]) != math.Float64bits(lr[i]) {
				t.Fatalf("rhs[%d] = %v, row loop %v", i, kr[i], lr[i])
			}
		}
	})
}
