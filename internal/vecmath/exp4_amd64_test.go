package vecmath

import (
	"reflect"
	"testing"
)

// TestExp4IsAssemblyKernel checks that on amd64 the init probe installs
// one of the assembly kernels, so the math.Exp fallback never runs there.
func TestExp4IsAssemblyKernel(t *testing.T) {
	got := reflect.ValueOf(exp4).Pointer()
	for _, k := range []func(x0, x1, x2, x3 float64) (float64, float64, float64, float64){expFMA4Asm, expSSE4Asm} {
		if got == reflect.ValueOf(k).Pointer() {
			return
		}
	}
	t.Fatalf("installed exp4 is neither expFMA4Asm nor expSSE4Asm (nil: %v)", exp4 == nil)
}
