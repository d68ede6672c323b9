// Package sim is the software RFID testbed that stands in for the paper's
// hardware (Impinj Speedway R420 reader, Laird S9028PCL antenna, Impinj
// E41-B/E51 tags, sliding track and turntable).
//
// The calibration and localization algorithms consume only
// (time, tag position, wrapped phase) tuples, so a simulator that produces
// exactly those — with the modulo-2π wrap, per-device phase offsets, the
// antenna's phase-center displacement, Gaussian phase noise, and
// image-method multipath — exercises the identical code path as the real
// testbed. See DESIGN.md §3 for the substitution argument.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/traject"
)

// Errors returned by the simulator.
var (
	ErrBadRate    = errors.New("sim: read rate must be positive")
	ErrBadDropout = errors.New("sim: dropout probability must be in [0, 1)")
	ErrNilDevice  = errors.New("sim: antenna and tag must be non-nil")
)

// Antenna models one reader antenna. Its true phase center — the point that
// actually transmits and receives — is displaced from the physical center by
// PhaseCenterOffset (the paper measures 2–3 cm on real hardware, Fig. 2).
type Antenna struct {
	// ID identifies the antenna in logs and calibration reports.
	ID string
	// PhysicalCenter is the manually measured mounting position.
	PhysicalCenter geom.Vec3
	// PhaseCenterOffset is the displacement from the physical center to the
	// true phase center.
	PhaseCenterOffset geom.Vec3
	// PhaseOffset is θ_R, the constant phase rotation contributed by the
	// reader/antenna circuitry (Eq. 1).
	PhaseOffset float64
	// Beam optionally models the directional gain pattern; nil means
	// isotropic.
	Beam *rf.Beam
}

// PhaseCenter returns the true phase center.
func (a *Antenna) PhaseCenter() geom.Vec3 {
	return a.PhysicalCenter.Add(a.PhaseCenterOffset)
}

// Tag models one RFID tag with its reflection phase offset θ_T (Eq. 1).
type Tag struct {
	ID          string
	PhaseOffset float64
}

// Environment bundles the RF conditions of a deployment.
type Environment struct {
	// Propagation carries the carrier wavelength and multipath reflectors.
	Propagation *rf.Propagation
	// PhaseNoiseStd is the baseline standard deviation of the Gaussian
	// phase noise in radians. The paper's own simulations use N(0, 0.1).
	PhaseNoiseStd float64
	// TxPowerDBm is the reader transmit power (the paper uses 32 dBm).
	TxPowerDBm float64
	// NoiseDistanceRef optionally inflates noise with distance: at distance
	// d the noise standard deviation is multiplied by max(1, d/ref),
	// modelling the SNR loss the paper observes at large depth (Fig. 14b).
	// Zero disables the effect.
	NoiseDistanceRef float64
	// Fading optionally models bursty multipath fades during tag movement;
	// nil disables the effect.
	Fading *FadeModel
}

// FadeModel describes deep multipath fades: as the tag travels, the channel
// occasionally drops into a fade where the reported phase acquires a large
// bias and extra jitter. Fades become more frequent as the line-of-sight
// weakens with distance, which is the mechanism the paper blames for DAH's
// degradation at large depth (Sec. V-C-2).
type FadeModel struct {
	// RatePerMeter is the expected number of fade onsets per metre of tag
	// travel when the tag is at RefDistance from the antenna. The rate
	// scales with (d/RefDistance)².
	RatePerMeter float64
	// RefDistance anchors the rate scaling.
	RefDistance float64
	// MinLength and MaxLength bound the spatial extent of one fade, metres.
	MinLength, MaxLength float64
	// MaxBias bounds the constant phase bias a fade adds, radians.
	MaxBias float64
}

// rate returns the fade onset rate per metre at distance d.
func (f *FadeModel) rate(d float64) float64 {
	if f.RefDistance <= 0 {
		return f.RatePerMeter
	}
	s := d / f.RefDistance
	return f.RatePerMeter * s * s
}

// DefaultPhaseNoiseStd matches the Gaussian noise of the paper's
// simulations, N(0, 0.1) radians.
const DefaultPhaseNoiseStd = 0.1

// NewEnvironment returns a free-space environment on the paper's band with
// the default noise level.
func NewEnvironment() (*Environment, error) {
	prop, err := rf.NewPropagation(rf.DefaultBand())
	if err != nil {
		return nil, err
	}
	return &Environment{
		Propagation:   prop,
		PhaseNoiseStd: DefaultPhaseNoiseStd,
		TxPowerDBm:    32,
	}, nil
}

// Wavelength returns the carrier wavelength in metres.
func (e *Environment) Wavelength() float64 { return e.Propagation.Lambda }

// AddReflector adds a multipath reflector to the environment.
func (e *Environment) AddReflector(r rf.Reflector) {
	e.Propagation.Reflectors = append(e.Propagation.Reflectors, r)
}

// Sample is one read delivered by the simulated reader. Phase is the
// wrapped reported phase in [0, 2π); TagPos is the commanded (ground-truth)
// tag position, which the algorithms know because the trajectory is known.
type Sample struct {
	Time    time.Duration
	TagPos  geom.Vec3
	Phase   float64
	RSSI    float64
	Segment int
	// Channel is the hop channel index the read was taken on (0 for a
	// fixed-frequency reader).
	Channel int
}

// Reader drives scans: it samples a trajectory at the configured read rate
// and produces the phase stream a real reader would report via LLRP.
type Reader struct {
	env     *Environment
	rateHz  float64
	dropout float64
	rng     *stats.RNG

	// Hopping state: per-channel propagation (shared reflectors, distinct
	// wavelengths) and per-channel stable phase offsets. Nil when fixed.
	hop        *HopPlan
	hopProps   []*rf.Propagation
	hopOffsets []float64
}

// HopPlan describes frequency hopping. The paper's testbed runs on a fixed
// 920.625 MHz carrier (China band), but FCC-region readers hop across up to
// 50 channels with ~200 ms dwells. Each channel keeps a stable but unknown
// phase offset (the PLL re-locks reproducibly per frequency), so phases are
// continuous within a channel and unrelated across channels — the situation
// core.Locate2DMultiChannel solves.
type HopPlan struct {
	// FrequenciesHz lists the hop channels.
	FrequenciesHz []float64
	// Dwell is the time spent on each channel before hopping. Zero means
	// 200 ms.
	Dwell time.Duration
}

func (h *HopPlan) dwell() time.Duration {
	if h.Dwell <= 0 {
		return 200 * time.Millisecond
	}
	return h.Dwell
}

// ReaderConfig parameterises a Reader.
type ReaderConfig struct {
	// RateHz is the per-tag read rate; the paper reports over 100 Hz.
	RateHz float64
	// DropoutProb is the probability that an individual read is missed,
	// modelling the bursty delivery of real inventory rounds.
	DropoutProb float64
	// Seed makes the run reproducible.
	Seed int64
	// Hopping optionally makes the reader hop channels; nil keeps the
	// paper's fixed carrier.
	Hopping *HopPlan
}

// DefaultReaderConfig matches the paper's testbed conditions.
func DefaultReaderConfig() ReaderConfig {
	return ReaderConfig{RateHz: 100, DropoutProb: 0, Seed: 1}
}

// NewReader builds a reader for the environment.
func NewReader(env *Environment, cfg ReaderConfig) (*Reader, error) {
	if env == nil {
		return nil, errors.New("sim: environment must be non-nil")
	}
	if cfg.RateHz <= 0 {
		return nil, ErrBadRate
	}
	if cfg.DropoutProb < 0 || cfg.DropoutProb >= 1 {
		return nil, ErrBadDropout
	}
	r := &Reader{
		env:     env,
		rateHz:  cfg.RateHz,
		dropout: cfg.DropoutProb,
		rng:     stats.NewRNG(cfg.Seed),
	}
	if cfg.Hopping != nil {
		if len(cfg.Hopping.FrequenciesHz) == 0 {
			return nil, errors.New("sim: hop plan needs at least one frequency")
		}
		r.hop = cfg.Hopping
		for _, f := range cfg.Hopping.FrequenciesHz {
			prop, err := rf.NewPropagation(rf.Band{FrequencyHz: f})
			if err != nil {
				return nil, err
			}
			prop.Reflectors = env.Propagation.Reflectors
			r.hopProps = append(r.hopProps, prop)
			// The PLL re-locks reproducibly per frequency: a stable,
			// channel-specific offset.
			r.hopOffsets = append(r.hopOffsets, r.rng.Angle())
		}
	}
	return r, nil
}

// channelAt returns the active hop channel index at elapsed scan time t, or
// 0 when the reader runs on a fixed carrier.
func (r *Reader) channelAt(t time.Duration) int {
	if r.hop == nil {
		return 0
	}
	return int(t/r.hop.dwell()) % len(r.hopProps)
}

// ChannelWavelengths returns the wavelength of each hop channel (a single
// entry when the carrier is fixed), for feeding core.SplitChannels.
func (r *Reader) ChannelWavelengths() map[int]float64 {
	out := make(map[int]float64)
	if r.hop == nil {
		out[0] = r.env.Wavelength()
		return out
	}
	for i, p := range r.hopProps {
		out[i] = p.Lambda
	}
	return out
}

// Scan moves the tag along the trajectory and returns the reads collected by
// the antenna. When the trajectory implements traject.Segmented, each sample
// carries its segment label.
func (r *Reader) Scan(ant *Antenna, tag *Tag, trj traject.Trajectory) ([]Sample, error) {
	if ant == nil || tag == nil {
		return nil, ErrNilDevice
	}
	if trj == nil {
		return nil, errors.New("sim: trajectory must be non-nil")
	}
	seg, _ := trj.(traject.Segmented)
	step := time.Duration(float64(time.Second) / r.rateHz)
	if step <= 0 {
		return nil, ErrBadRate
	}
	total := trj.Duration()
	n := int(total/step) + 1
	out := make([]Sample, 0, n)
	fade := newFadeState(r.env.Fading, r.rng)
	prev := trj.Position(0)
	for t := time.Duration(0); t <= total; t += step {
		pos := trj.Position(t)
		// Fades strike when the line-of-sight is weak: far away, or
		// moderately off the antenna's main beam. The beam contribution is
		// capped so side-lobe floor gains do not saturate the fade process.
		center := ant.PhaseCenter()
		effDist := center.Dist(pos)
		if ant.Beam != nil {
			g := math.Max(ant.Beam.Gain(center, pos), 0.5)
			effDist /= math.Sqrt(g)
		}
		bias, extraNoise := fade.advance(effDist, pos.Dist(prev))
		prev = pos
		if r.dropout > 0 && r.rng.Float64() < r.dropout {
			continue
		}
		s := r.read(ant, tag, pos, r.channelAt(t))
		if bias != 0 || extraNoise > 0 {
			s.Phase = rf.WrapPhase(s.Phase + bias + r.rng.Normal(0, extraNoise))
		}
		s.Time = t
		if seg != nil {
			s.Segment = seg.SegmentAt(t)
		}
		out = append(out, s)
	}
	return out, nil
}

// fadeState tracks the bursty-fade process along one scan.
type fadeState struct {
	model     *FadeModel
	rng       *stats.RNG
	remaining float64 // metres of fade left; <= 0 means not fading
	bias      float64
}

func newFadeState(model *FadeModel, rng *stats.RNG) *fadeState {
	return &fadeState{model: model, rng: rng}
}

// advance moves the process by travelled metres at antenna distance d and
// returns the phase bias plus extra noise std to apply to the next read.
func (f *fadeState) advance(d, travelled float64) (bias, extraNoise float64) {
	if f.model == nil {
		return 0, 0
	}
	if f.remaining > 0 {
		f.remaining -= travelled
		return f.bias, f.model.MaxBias / 8
	}
	if f.rng.Float64() < f.model.rate(d)*travelled {
		f.remaining = f.rng.Uniform(f.model.MinLength, f.model.MaxLength)
		f.bias = f.rng.Uniform(-f.model.MaxBias, f.model.MaxBias)
		return f.bias, f.model.MaxBias / 8
	}
	return 0, 0
}

// ReadStatic collects n reads with the tag fixed at pos, as in the paper's
// phase-offset study (Fig. 3: 500 reads per antenna-tag pair).
func (r *Reader) ReadStatic(ant *Antenna, tag *Tag, pos geom.Vec3, n int) ([]Sample, error) {
	if ant == nil || tag == nil {
		return nil, ErrNilDevice
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: read count %d must be positive", n)
	}
	step := time.Duration(float64(time.Second) / r.rateHz)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		s := r.read(ant, tag, pos, r.channelAt(time.Duration(i)*step))
		s.Time = time.Duration(i) * step
		out = append(out, s)
	}
	return out, nil
}

// read produces a single sample for the tag at pos.
func (r *Reader) read(ant *Antenna, tag *Tag, pos geom.Vec3, channel int) Sample {
	center := ant.PhaseCenter()
	prop := r.env.Propagation
	extraOffset := 0.0
	if r.hop != nil {
		prop = r.hopProps[channel]
		extraOffset = r.hopOffsets[channel]
	}
	channelPhase := prop.ChannelPhase(center, pos)

	noiseStd := r.env.PhaseNoiseStd
	gain := 1.0
	if ant.Beam != nil {
		noiseStd *= ant.Beam.NoiseScale(center, pos)
		gain = ant.Beam.Gain(center, pos)
	}
	if ref := r.env.NoiseDistanceRef; ref > 0 {
		if d := center.Dist(pos); d > ref {
			noiseStd *= d / ref
		}
	}
	noise := 0.0
	if noiseStd > 0 {
		noise = r.rng.Normal(0, noiseStd)
	}

	phase := rf.WrapPhase(channelPhase + tag.PhaseOffset + ant.PhaseOffset +
		extraOffset + noise)
	mag := prop.ChannelMagnitude(center, pos) * gain
	return Sample{
		TagPos:  pos,
		Phase:   phase,
		RSSI:    rf.RSSI(mag, r.env.TxPowerDBm),
		Channel: channel,
	}
}

// Phases extracts the wrapped phases of a sample slice.
func Phases(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Phase
	}
	return out
}

// Segments extracts the trajectory segment labels of a sample slice.
func Segments(samples []Sample) []int {
	out := make([]int, len(samples))
	for i, s := range samples {
		out[i] = s.Segment
	}
	return out
}

// Positions extracts the ground-truth tag positions of a sample slice.
func Positions(samples []Sample) []geom.Vec3 {
	out := make([]geom.Vec3, len(samples))
	for i, s := range samples {
		out[i] = s.TagPos
	}
	return out
}

// FilterSegment returns only the samples carrying the given segment label.
func FilterSegment(samples []Sample, segment int) []Sample {
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if s.Segment == segment {
			out = append(out, s)
		}
	}
	return out
}
