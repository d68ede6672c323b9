package core

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/line_golden.txt from the current solver")

const (
	goldenFile  = "testdata/line_golden.txt"
	goldenCases = 512
)

// goldenCase is one seeded line window of the bit-identity corpus: a wrapped
// phase trace along a straight line in the z = 0 plane, preprocessed with the
// given smoothing and solved with Locate2DLineIntervals.
type goldenCase struct {
	obs       []PosPhase
	intervals []float64
	positive  bool
	desc      string
}

// makeGoldenCase derives case i from its own seed. It covers window lengths
// 64–256, smoothing 0 and 9, one and two pairing intervals, both sides of
// the line, and exactly spaced (conveyor: 5 mm, every read) as well as
// jittered read positions on arbitrarily oriented lines.
func makeGoldenCase(i int) goldenCase {
	rng := stats.NewRNG(int64(1000 + i))
	n := 64 + rng.Intn(193)
	smooth := 0
	if i%2 == 1 {
		smooth = 9
	}
	intervals := []float64{0.2}
	if (i/2)%2 == 1 {
		intervals = []float64{0.1, 0.25}
	}
	positive := (i/4)%2 == 0
	exact := (i/8)%2 == 0

	angle, step := 0.0, 0.005
	if !exact {
		angle = rng.Angle()
		step = rng.Uniform(0.003, 0.006)
	}
	u := geom.V2(math.Cos(angle), math.Sin(angle))
	v := u.Perp()
	x0 := rng.Uniform(-1.2, 0.2)
	depth := rng.Uniform(0.4, 1.2)
	if !positive {
		depth = -depth
	}
	along := rng.Uniform(0, float64(n)*step)
	origin := geom.V2(rng.Uniform(-0.5, 0.5), rng.Uniform(-0.5, 0.5))
	ant := origin.Add(u.Scale(x0 + along)).Add(v.Scale(depth)).XYZ(0)
	offset := rng.Uniform(0, 2*math.Pi)

	positions := make([]geom.Vec3, n)
	wrapped := make([]float64, n)
	s := x0
	for k := range positions {
		var p geom.Vec2
		if exact {
			// Exact spacing: every read lands on x0 + k·5 mm, so pair
			// separations hit the interval exactly.
			p = geom.V2(x0+float64(k)*step, 0)
		} else {
			s += step * rng.Uniform(0.5, 1.5)
			p = origin.Add(u.Scale(s))
		}
		positions[k] = p.XYZ(0)
		th := rf.PhaseOfDistance(ant.Dist(positions[k]), testLambda) + offset + rng.Normal(0, 0.1)
		wrapped[k] = rf.WrapPhase(th)
	}
	obs, err := Preprocess(positions, wrapped, smooth)
	if err != nil {
		panic(err)
	}
	return goldenCase{
		obs:       obs,
		intervals: intervals,
		positive:  positive,
		desc:      fmt.Sprintf("n=%d smooth=%d intervals=%v positive=%v exact=%v", n, smooth, intervals, positive, exact),
	}
}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenLine renders one solve outcome as the golden file records it.
func goldenLine(i int, sol *Solution, err error) string {
	if err != nil {
		return fmt.Sprintf("%d err %s", i, err)
	}
	return fmt.Sprintf("%d ok %s %s %s %s %d %s %s", i,
		hexf(sol.Position.X), hexf(sol.Position.Y), hexf(sol.Position.Z),
		hexf(sol.RefDistance), sol.Iterations, hexf(sol.FinalResidual), hexf(sol.MeanResidual))
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("open golden file (regenerate with -update-golden): %v", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != goldenCases {
		t.Fatalf("golden file has %d cases, want %d", len(lines), goldenCases)
	}
	return lines
}

// TestLineGoldenBitIdentity pins every output bit of the batch line solve
// over a corpus of seeded windows: Position, RefDistance, Iterations,
// FinalResidual and MeanResidual in hex-float form. Any change to the
// assembly order, the IRLS arithmetic or the median recovery shows here.
// The corpus in testdata was recorded with the solver as it stood before it
// moved onto LineWorkspace; regenerate it with -update-golden only for a
// change that is meant to move estimates.
func TestLineGoldenBitIdentity(t *testing.T) {
	opts := DefaultSolveOptions()
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# index ok X Y Z RefDistance Iterations FinalResidual MeanResidual (hex floats)\n")
		for i := 0; i < goldenCases; i++ {
			c := makeGoldenCase(i)
			sol, err := Locate2DLineIntervals(c.obs, testLambda, c.intervals, c.positive, opts)
			b.WriteString(goldenLine(i, sol, err) + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := make([]goldenCase, goldenCases)
	for i := range cases {
		cases[i] = makeGoldenCase(i)
	}
	var want []string
	if runtime.GOARCH == "amd64" {
		want = readGolden(t)
	} else {
		// The corpus was recorded on amd64, where Go never fuses a multiply
		// and an add; other architectures may, which moves the last bits.
		// There the wrapper's own results are the reference, so the
		// workspace checks below still hold.
		for i, c := range cases {
			sol, err := Locate2DLineIntervals(c.obs, testLambda, c.intervals, c.positive, opts)
			want = append(want, goldenLine(i, sol, err))
		}
	}
	check := func(how string, i int, sol *Solution, err error) {
		t.Helper()
		if got := goldenLine(i, sol, err); got != want[i] {
			t.Errorf("%s: case %d (%s):\n got %s\nwant %s", how, i, cases[i].desc, got, want[i])
		}
	}
	for i, c := range cases {
		sol, err := Locate2DLineIntervals(c.obs, testLambda, c.intervals, c.positive, opts)
		check("wrapper", i, sol, err)
	}

	// One workspace and one Solution serve every case in corpus order, then
	// again from the longest window to the shortest, so each case also runs
	// on buffers a longer window sized and filled.
	var ws LineWorkspace
	var sol Solution
	solveInto := func(i int) error {
		c := cases[i]
		return Locate2DLineIntervalsInto(&ws, c.obs, testLambda, c.intervals, c.positive, opts, &sol)
	}
	for i := range cases {
		err := solveInto(i)
		check("reused workspace", i, &sol, err)
	}
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(cases[order[a]].obs) > len(cases[order[b]].obs) })
	for _, i := range order {
		err := solveInto(i)
		check("long-to-short workspace", i, &sol, err)
	}
}

// TestLineWorkspaceZeroAllocs pins the workspace forms: once warm, neither
// preprocessing nor the batch line solve into a reused Solution touches the
// heap.
func TestLineWorkspaceZeroAllocs(t *testing.T) {
	c := makeGoldenCase(1) // smoothing 9
	positions := make([]geom.Vec3, len(c.obs))
	wrapped := make([]float64, len(c.obs))
	for i, o := range c.obs {
		positions[i], wrapped[i] = o.Pos, rf.WrapPhase(o.Theta)
	}
	var pre PreprocessBuffers
	var ws LineWorkspace
	var sol Solution
	opts := DefaultSolveOptions()
	preprocess := func() {
		if _, err := PreprocessInto(&pre, positions, wrapped, 9); err != nil {
			t.Fatal(err)
		}
	}
	solve := func() {
		if err := Locate2DLineIntervalsInto(&ws, c.obs, testLambda, c.intervals, c.positive, opts, &sol); err != nil {
			t.Fatal(err)
		}
	}
	preprocess()
	solve()
	if allocs := testing.AllocsPerRun(100, preprocess); allocs != 0 {
		t.Errorf("warm PreprocessInto allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, solve); allocs != 0 {
		t.Errorf("warm Locate2DLineIntervalsInto allocates %.1f times, want 0", allocs)
	}
}
