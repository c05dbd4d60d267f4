package sim

import (
	"math"
	"math/rand"
	"time"
)

// Exp draws an exponentially distributed duration with the given mean.
// It is the canonical think-time and inter-arrival distribution.
func Exp(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// LogNormal draws a log-normally distributed duration parameterized by the
// desired median and the σ of the underlying normal. Network jitter tails
// are modeled with this distribution.
func LogNormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	return time.Duration(float64(median) * math.Exp(rng.NormFloat64()*sigma))
}

// TruncNormFactor draws a positive multiplicative factor with mean 1 and the
// given coefficient of variation, truncated to [0.3, 3]. Instance CPU speed
// heterogeneity (Schad et al. report CoV ≈ 21% for EC2 small instances) is
// sampled with this helper.
func TruncNormFactor(rng *rand.Rand, cov float64) float64 {
	if cov <= 0 {
		return 1
	}
	for i := 0; i < 64; i++ {
		f := 1 + rng.NormFloat64()*cov
		if f >= 0.3 && f <= 3 {
			return f
		}
	}
	return 1
}
