package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes the test binary run memsim's main instead of the
// tests, so a test can drive the real flag handling and exit codes.
const runMainEnv = "MEMSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusesUnboundedOrNegativeCounts: a request count below 1 would
// build unbounded traffic streams and a negative client count would
// divide the address space by zero, so both are usage errors (exit 2)
// before any generator is built. Each run is bounded by a short timeout,
// so a memsim that did start streaming is killed instead of running on.
func TestRefusesUnboundedOrNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-requests", "0"}, "-requests: count must be positive, got 0 (unbounded streams are not served)"},
		{[]string{"-requests", "-3"}, "count must be positive, got -3"},
		{[]string{"-clients", "-1"}, "-clients must be non-negative, got -1"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("memsim %v still running after the timeout", tc.args)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("memsim %v: %v, want exit status 2 (stderr: %s)", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("memsim %v stderr lacks %q:\n%s", tc.args, tc.want, stderr.String())
			}
		})
	}
}

// TestUsageErrorLeavesNoProfile: the flags are checked before the
// profiler starts, so a usage error exits 2 without creating the
// -cpuprofile or -memprofile file.
func TestUsageErrorLeavesNoProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-cpuprofile", cpu, "-memprofile", mem, "-ecc", "secded")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("memsim -ecc secded: %v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("usage error left %s behind (stat: %v)", filepath.Base(p), err)
		}
	}
}
