//go:build amd64

package vecmath

// expFMA4Asm is the hand-interleaved four-lane FMA exp kernel
// (exp4_amd64.s), bit-identical to math.Exp's AVX+FMA path on its domain.
func expFMA4Asm(x0, x1, x2, x3 float64) (y0, y1, y2, y3 float64)

// expSSE4Asm is the hand-interleaved four-lane plain-SSE exp kernel
// (exp4_amd64.s), bit-identical to math.Exp's non-FMA path on its domain.
func expSSE4Asm(x0, x1, x2, x3 float64) (y0, y1, y2, y3 float64)

// cpuidVM executes CPUID with the given leaf/subleaf.
func cpuidVM(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvVM reads XCR0 (only called when CPUID reports OSXSAVE).
func xgetbvVM() (eax, edx uint32)

// haveAVXFMA reports whether the CPU and OS support the VEX-encoded FMA
// instructions used by expFMA4Asm: CPUID.1 ECX bits FMA (12), OSXSAVE (27)
// and AVX (28), plus XCR0 confirming the OS saves XMM+YMM state. This is
// the same predicate the runtime uses to pick math.Exp's FMA path.
func haveAVXFMA() bool {
	maxID, _, _, _ := cpuidVM(0, 0)
	if maxID < 1 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuidVM(1, 0)
	if ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	xcr0, _ := xgetbvVM()
	return xcr0&0x6 == 0x6
}

// expKernelCandidates lists four-lane exp kernels to probe at init, fastest
// first: FMA only when the CPU supports it (probing it elsewhere would
// fault), then plain SSE.
func expKernelCandidates() []func(x0, x1, x2, x3 float64) (float64, float64, float64, float64) {
	var c []func(x0, x1, x2, x3 float64) (float64, float64, float64, float64)
	if haveAVXFMA() {
		c = append(c, expFMA4Asm)
	}
	return append(c, expSSE4Asm)
}
