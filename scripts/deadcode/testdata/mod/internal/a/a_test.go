package a

import "testing"

func TestCalls(t *testing.T) {
	TestOnly()
	Allowed()
	NewBuilt()
	_ = Live{}.Accessor()
}
