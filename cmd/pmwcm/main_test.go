package main

import (
	"strings"
	"testing"
)

// TestRunRejectsFlagsAfterIDs checks that a flag placed after the
// experiment ids is reported by name before any experiment runs.
func TestRunRejectsFlagsAfterIDs(t *testing.T) {
	for _, args := range [][]string{
		{"all", "-seed", "1"},
		{"-quick", "T1.LIN", "-seed", "2"},
	} {
		var out strings.Builder
		err := runCmd(args, &out)
		if err == nil {
			t.Fatalf("run %v: no error", args)
		}
		if msg := err.Error(); !strings.Contains(msg, "flag -seed") || !strings.Contains(msg, "flags go before") {
			t.Errorf("run %v: error %q does not name -seed and say flags go before the ids", args, msg)
		}
		if out.Len() != 0 {
			t.Errorf("run %v: an experiment ran before the error:\n%s", args, out.String())
		}
	}
}
