package metrics

// SetHistogramCap lowers the reservoir cap so that a short run crosses it,
// and returns the function that restores the default. No test that sets it
// may run in parallel with another that records.
func SetHistogramCap(n int) (restore func()) {
	old := histogramCap
	histogramCap = n
	return func() { histogramCap = old }
}
