package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for reproducible simulations. It
// wraps math/rand with domain-specific samplers. RNG is not safe for
// concurrent use; create one per goroutine.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Angle returns a uniform angle in [0, 2π).
func (g *RNG) Angle() float64 { return g.r.Float64() * 2 * math.Pi }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Fork returns a new RNG deterministically derived from this one. Use it to
// give each simulated device an independent but reproducible stream.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// SplitSeed derives a decorrelated seed for one worker of a pool from a base
// seed, using a splitmix64-style finalising mix. Nearby (seed, worker)
// pairs map to distant seeds, so worker streams do not overlap in practice,
// and the derivation is pure: the same pair always yields the same seed,
// independent of the order workers start in.
func SplitSeed(seed int64, worker int) int64 {
	z := uint64(seed) + uint64(worker+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
