//go:build !amd64

package vecmath

// expKernelCandidates returns no kernels off amd64: math.Exp there follows
// the portable polynomial method, which the amd64 kernel does not
// reproduce, so ExpShiftedSum stays on the math.Exp fallback.
func expKernelCandidates() []func(x0, x1, x2, x3 float64) (float64, float64, float64, float64) {
	return nil
}
