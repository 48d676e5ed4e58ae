package main

import (
	"strings"
	"testing"
)

// fixture is a module with a nested bench module; internal/a declares one
// case of each rule.
const fixture = "testdata/mod"

func TestCheckFixture(t *testing.T) {
	report, err := check(fixture, map[string]string{"internal/a.Allowed": "kept by the test"})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range report {
		listed[strings.Fields(line)[1]] = true
	}
	for _, c := range []struct {
		key    string
		listed bool
		why    string
	}{
		{"internal/a.TestOnly", true, "only a test calls it"},
		{"internal/a.Live.Accessor", true, "only a test calls it"},
		{"internal/a.Asserted", true, "a blank interface assertion is not a use"},
		{"internal/a.NewBuilt", true, "only a test calls it"},
		{"internal/a.Built", false, "NewBuilt uses it; it is listed once NewBuilt is gone"},
		{"internal/a.Asserted.M", false, "it implements Iface"},
		{"internal/a.Live.M", false, "it implements Iface, which cmd uses"},
		{"internal/a.statusWriter.Flush", false, "it implements http.Flusher"},
		{"internal/a.countingSource.Int63", false, "it implements rand.Source"},
		{"internal/a.FromCmd", false, "cmd/ uses it"},
		{"internal/a.FromExample", false, "examples/ uses it"},
		{"internal/a.FromBench", false, "the nested bench module uses it"},
		{"internal/a.Kernel", false, "cmd/ uses it; each build declares it once"},
		{"internal/a.Allowed", false, "it is allowlisted"},
	} {
		if listed[c.key] != c.listed {
			t.Errorf("%s listed = %v, want %v: %s", c.key, listed[c.key], c.listed, c.why)
		}
		delete(listed, c.key)
	}
	for key := range listed {
		t.Errorf("%s listed unexpectedly", key)
	}
}

func TestCheckAllowlist(t *testing.T) {
	for _, c := range []struct {
		key, why, want string
	}{
		{"internal/a.Allowed", " ", "allowlist: internal/a.Allowed has no reason"},
		{"internal/a.FromCmd", "x", "allowlist: internal/a.FromCmd is stale"},
		{"internal/a.Gone", "x", "allowlist: internal/a.Gone is stale"},
	} {
		report, err := check(fixture, map[string]string{c.key: c.why})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, line := range report {
			found = found || strings.HasPrefix(line, c.want)
		}
		if !found {
			t.Errorf("allow %s: %q: no line %q in %q", c.key, c.why, c.want, report)
		}
	}
}
