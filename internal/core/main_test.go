package core

import (
	"testing"

	"edram/internal/testleak"
)

// TestMain gates the package on goroutine hygiene: once every test has
// passed, the runtime must settle back to the baseline goroutine count,
// so a sweep whose workers or results closer outlive a cancellation
// fails the run with a full stack dump.
func TestMain(m *testing.M) { testleak.Check(m) }
