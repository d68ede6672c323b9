package main

import (
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stream"
)

// gateResult summarises the offline re-solve of the gated estimates.
type gateResult struct {
	checked, exact, mismatches int
	worst                      float64 // largest slide deviation as a share of its bound
	first                      string  // the first mismatch, for the report
}

func (gr *gateResult) mismatch(gd gated, want *core.Solution) {
	gr.mismatches++
	if gr.first == "" {
		gr.first = fmt.Sprintf("tag %s estimate %d (window %d): published %v, offline %v (|Δ| = %.3g m, cond %.3g)",
			gd.e.tag, gd.e.seq, gd.e.window, gd.pos, want.Position, gd.pos.Dist(want.Position), want.ConditionEstimate)
	}
}

// checkGate re-solves every gated estimate's window offline: the same reads,
// regenerated from the seed, corrected by the calibrated offset exactly as
// the engine's profile does, through stream.SolveWindow with the workload's
// batch solver. Batch-solver estimates must match bit for bit; incremental
// slides must stay within core.LineSession's 1e-9·max(1, cond) bound.
func checkGate(g *generator, w workload, lambda, offset float64, gate []gated) (gateResult, error) {
	var gr gateResult
	solver := stream.Line2DSolver(lambda, intervals, true, core.DefaultSolveOptions())
	parcels := map[int]*parcel{}
	var win []stream.Sample
	for _, gd := range gate {
		p := parcels[gd.e.parcel]
		if p == nil {
			var err error
			if p, err = g.makeParcel(gd.e.parcel); err != nil {
				return gr, err
			}
			parcels[gd.e.parcel] = p
		}
		win = win[:0]
		for _, s := range p.samples[gd.e.end-gd.e.window+1 : gd.e.end+1] {
			ss := stream.FromSim(dataset.Tagged(p.tag, s).Sample())
			ss.Phase = rf.WrapPhase(ss.Phase - offset)
			win = append(win, ss)
		}
		gr.checked++
		want, err := stream.SolveWindow(win, w.smooth, solver, nil)
		if err != nil {
			gr.mismatches++
			if gr.first == "" {
				gr.first = fmt.Sprintf("tag %s estimate %d: offline re-solve failed: %v", gd.e.tag, gd.e.seq, err)
			}
			continue
		}
		if sameBits(gd.pos, want.Position) {
			gr.exact++
			continue
		}
		if !w.incremental {
			gr.mismatch(gd, want)
			continue
		}
		tol := 1e-9 * math.Max(1, want.ConditionEstimate)
		dev := gd.pos.Dist(want.Position) / tol
		gr.worst = math.Max(gr.worst, dev)
		if !(dev <= 1) {
			gr.mismatch(gd, want)
		}
	}
	return gr, nil
}

func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
