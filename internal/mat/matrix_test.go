package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFromRows(t *testing.T, rows [][]float64) *Dense {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewDenseAndAccess(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At = %v", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("zero init broken: %v", got)
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0x0 matrix")
		}
	}()
	NewDense(0, 0)
}

func TestFromRows(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged rows err = %v", err)
	}
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Errorf("nil rows err = %v", err)
	}
}

func TestRowColCopySemantics(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row returned a live reference")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Error("Col returned a live reference")
	}
	if !vecAlmostEq(m.Col(1), []float64{2, 4}, 0) {
		t.Errorf("Col = %v", m.Col(1))
	}
	if err := m.SetRow(1, []float64{7, 8}); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 8 {
		t.Error("SetRow did not write")
	}
	if err := m.SetRow(1, []float64{7}); !errors.Is(err, ErrShape) {
		t.Errorf("SetRow short err = %v", err)
	}
}

func TestTranspose(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	want := mustFromRows(t, [][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !tr.Equal(want, 0) {
		t.Errorf("T =\n%v", tr)
	}
}

func TestAddSubScale(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(mustFromRows(t, [][]float64{{6, 8}, {10, 12}}), 0) {
		t.Errorf("Add =\n%v", sum)
	}
	diff, err := b.Sub(a)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(mustFromRows(t, [][]float64{{4, 4}, {4, 4}}), 0) {
		t.Errorf("Sub =\n%v", diff)
	}
	if got := a.ScaleBy(2); !got.Equal(mustFromRows(t, [][]float64{{2, 4}, {6, 8}}), 0) {
		t.Errorf("ScaleBy =\n%v", got)
	}
	bad := NewDense(1, 2)
	if _, err := a.Add(bad); !errors.Is(err, ErrShape) {
		t.Errorf("Add shape err = %v", err)
	}
	if _, err := a.Sub(bad); !errors.Is(err, ErrShape) {
		t.Errorf("Sub shape err = %v", err)
	}
}

func TestMul(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{{19, 22}, {43, 50}})
	if !p.Equal(want, 1e-12) {
		t.Errorf("Mul =\n%v", p)
	}
	if _, err := a.Mul(NewDense(3, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("Mul shape err = %v", err)
	}
	id := Identity(2)
	p2, _ := a.Mul(id)
	if !p2.Equal(a, 0) {
		t.Error("A*I != A")
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	v, err := a.MulVec([]float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(v, []float64{-1, -1, -1}, 1e-12) {
		t.Errorf("MulVec = %v", v)
	}
	tv, err := a.TMulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(tv, []float64{9, 12}, 1e-12) {
		t.Errorf("TMulVec = %v", tv)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec shape err = %v", err)
	}
	if _, err := a.TMulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("TMulVec shape err = %v", err)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(7, 3)
	for i := 0; i < 7; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	gram := a.Gram()
	explicit, err := a.T().Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	if !gram.Equal(explicit, 1e-12) {
		t.Errorf("Gram mismatch:\n%v\nvs\n%v", gram, explicit)
	}
}

// TestWeightedGramMatchesExplicit checks the fused normal-equation kernel:
// its lower triangle and right-hand side match the explicit Aᵀ·diag(w)·A and
// Aᵀ·diag(w)·b, unit weights reproduce Gram and TMulVec bit for bit, and a
// bad weight is refused.
func TestWeightedGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDense(6, 3)
	w := make([]float64, 6)
	b := make([]float64, 6)
	for i := 0; i < 6; i++ {
		w[i] = rng.Float64() + 0.1
		b[i] = rng.NormFloat64()
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	wg := NewDense(3, 3)
	wtv := make([]float64, 3)
	if err := a.normalEqInto(wg, wtv, w, b); err != nil {
		t.Fatal(err)
	}
	// Explicit: Aᵀ diag(w) A.
	wa := a.Clone()
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			wa.Set(i, j, wa.At(i, j)*w[i])
		}
	}
	explicit, err := a.T().Mul(wa)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := explicit.At(i, j)
			if j > i {
				want = 0 // upper triangle left for choleskyInto to ignore
			}
			if math.Abs(wg.At(i, j)-want) > 1e-12 {
				t.Errorf("weighted Gram (%d,%d) = %v, want %v", i, j, wg.At(i, j), want)
			}
		}
	}
	wb := make([]float64, 6)
	for i := range wb {
		wb[i] = w[i] * b[i]
	}
	explicitV, err := a.TMulVec(wb)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(wtv, explicitV, 1e-12) {
		t.Errorf("weighted Aᵀb mismatch: %v vs %v", wtv, explicitV)
	}

	g := NewDense(3, 3)
	rhs := make([]float64, 3)
	if err := a.normalEqInto(g, rhs, nil, b); err != nil {
		t.Fatal(err)
	}
	gram := a.Gram()
	tv, _ := a.TMulVec(b)
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			if g.At(i, j) != gram.At(i, j) {
				t.Errorf("unit-weight Gram (%d,%d) = %v, want %v bit for bit", i, j, g.At(i, j), gram.At(i, j))
			}
		}
		if rhs[i] != tv[i] {
			t.Errorf("unit-weight Aᵀb[%d] = %v, want %v bit for bit", i, rhs[i], tv[i])
		}
	}

	w[4] = -1
	if err := a.normalEqInto(NewDense(3, 3), make([]float64, 3), w, b); !errors.Is(err, ErrShape) {
		t.Errorf("negative weight err = %v, want ErrShape", err)
	}
}

func TestNorms(t *testing.T) {
	m := mustFromRows(t, [][]float64{{3, -4}, {0, 0}})
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v", got)
	}
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(vals [6]float64) bool {
		m := NewDense(2, 3)
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				v := vals[i*3+j]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				m.Set(i, j, v)
			}
		}
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rows := 3 + rng.Intn(10)
		cols := 1 + rng.Intn(4)
		a := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		g := a.Gram()
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
				}
			}
			if g.At(i, i) < -1e-12 {
				t.Fatalf("Gram diagonal negative: %v", g.At(i, i))
			}
		}
	}
}
