package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Errors shared by the solvers in this package.
var (
	// ErrShape is returned when matrix dimensions are incompatible with the
	// requested operation.
	ErrShape = errors.New("mat: incompatible matrix shapes")
	// ErrSingular is returned when a factorization or solve encounters a
	// (numerically) singular matrix.
	ErrSingular = errors.New("mat: matrix is singular or ill-conditioned")
	// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
	// positive definite.
	ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")
)

// Dense is a row-major dense matrix of float64 values.
//
// Ownership rules: every method that returns a slice (Row, Col) or a matrix
// (Clone, T, Add, Sub, ScaleBy, Mul, Gram, ...) returns freshly allocated
// storage that never aliases the receiver's internal buffer — callers may
// mutate results freely. The zero-allocation variants live on Workspace and
// NormalEq, whose returned slices DO alias internal scratch; see their doc
// comments for the validity window.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero-initialised rows×cols matrix. It panics if either
// dimension is not positive — a programming error, not a runtime condition.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrShape
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d entries, want %d: %w",
				i, len(r), cols, ErrShape)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies the given values into row i.
func (m *Dense) SetRow(i int, vals []float64) error {
	if len(vals) != m.cols {
		return ErrShape
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], vals)
	return nil
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Reshape resizes m in place to rows×cols, reusing the backing array when it
// has capacity and allocating a larger one otherwise. All entries are reset
// to zero. The zero value of Dense reshapes into a valid matrix, which is
// what lets Workspace scratch matrices grow on demand and then stay
// allocation-free in steady state. It panics on non-positive dimensions,
// like NewDense.
func (m *Dense) Reshape(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = rows, cols
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns m + n.
func (m *Dense) Add(n *Dense) (*Dense, error) {
	if m.rows != n.rows || m.cols != n.cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += n.data[i]
	}
	return out, nil
}

// Sub returns m − n.
func (m *Dense) Sub(n *Dense) (*Dense, error) {
	if m.rows != n.rows || m.cols != n.cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= n.data[i]
	}
	return out, nil
}

// ScaleBy returns s·m.
func (m *Dense) ScaleBy(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m·n.
func (m *Dense) Mul(n *Dense) (*Dense, error) {
	if m.cols != n.rows {
		return nil, ErrShape
	}
	out := NewDense(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			nk := n.data[k*n.cols : (k+1)*n.cols]
			for j, nkj := range nk {
				oi[j] += mik * nkj
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, ErrShape
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.rowDot(i, v)
	}
	return out, nil
}

// rowDot returns row i of m dotted with v, summed left to right: the one
// definition of A·x every product and residual in the package uses.
func (m *Dense) rowDot(i int, v []float64) float64 {
	var s float64
	for j, r := range m.data[i*m.cols : (i+1)*m.cols] {
		s += r * v[j]
	}
	return s
}

// Gram returns the Gram matrix mᵀ·m (cols×cols), computed directly without
// materialising the transpose.
func (m *Dense) Gram() *Dense {
	out := NewDense(m.cols, m.cols)
	m.gramInto(out)
	return out
}

// gramInto accumulates mᵀ·m into out, which must be cols×cols and zeroed.
// The row-by-row accumulation order is the contract shared with
// NormalEq.AddRow so that a freshly accumulated Gram matrix is bit-identical
// to an incrementally built one over the same row sequence.
func (m *Dense) gramInto(out *Dense) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a, ra := range row {
			if ra == 0 {
				continue
			}
			oa := out.data[a*m.cols : (a+1)*m.cols]
			for b, rb := range row {
				oa[b] += ra * rb
			}
		}
	}
}

// TMulVec returns mᵀ·v without materialising the transpose.
func (m *Dense) TMulVec(v []float64) ([]float64, error) {
	if m.rows != len(v) {
		return nil, ErrShape
	}
	out := make([]float64, m.cols)
	m.tMulVecInto(out, v)
	return out, nil
}

// tMulVecInto accumulates mᵀ·v into out (len m.cols, zeroed by the caller).
func (m *Dense) tMulVecInto(out, v []float64) {
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, r := range row {
			out[j] += r * vi
		}
	}
}

// normalEqInto accumulates the normal equations of the weighted system in
// one pass over the rows: the lower triangle of mᵀ·diag(w)·m into gram
// (cols×cols, zeroed) and mᵀ·diag(w)·b into rhs (len cols, zeroed). A nil w
// means unit weights. A negative or NaN weight stops the pass with ErrShape.
//
// Each entry receives its row contributions in row order, exactly as
// gramInto, tMulVecInto and NormalEq.AddRow add them, and a unit weight
// multiplies exactly, so the unweighted system is bitwise the one those
// build. The strict upper triangle of gram stays zero: choleskyInto reads
// only the lower one.
func (m *Dense) normalEqInto(gram *Dense, rhs, w, b []float64) error {
	for i := 0; i < m.rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
			if wi < 0 || math.IsNaN(wi) {
				return fmt.Errorf("weight %d is %v: %w", i, wi, ErrShape)
			}
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		if wi != 0 {
			for a, ra := range row {
				if ra == 0 {
					continue
				}
				ga := gram.data[a*m.cols : a*m.cols+a+1]
				s := wi * ra
				for c := range ga {
					ga[c] += s * row[c]
				}
			}
		}
		if wv := wi * b[i]; wv != 0 {
			for j, r := range row {
				rhs[j] += r * wv
			}
		}
	}
	return nil
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether m and n have the same shape and entries within tol.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Vector helpers shared across the package.

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AXPY computes y ← y + a·x in place.
func AXPY(a float64, x, y []float64) {
	for i, xi := range x {
		y[i] += a * xi
	}
}
