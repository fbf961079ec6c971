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

// runMainEnv makes the test binary run edramx's main instead of the
// tests, so a test can drive the real flag handling and exit codes.
const runMainEnv = "EDRAMX_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runEdramx runs edramx with args under a short timeout and returns its
// exit code and stderr.
func runEdramx(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("edramx %v still running after the timeout", args)
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("edramx %v: %v", args, err)
	}
	if exit != nil {
		return exit.ExitCode(), stderr.String()
	}
	return 0, stderr.String()
}

// TestProfilesOnErrors: invalid requirements are refused before the
// profiler starts, so they leave no profile file; a run that fails
// after the sweep (nothing feasible) stops the profiler before it
// exits, so both profiles are complete, not empty.
func TestProfilesOnErrors(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")

	code, stderr := runEdramx(t, "-cpuprofile", cpu, "-memprofile", mem, "-capacity", "0", "-quiet")
	if code != 1 || !strings.Contains(stderr, "capacity must be positive") {
		t.Fatalf("edramx -capacity 0: exit %d, stderr %q; want exit 1 naming the capacity", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("invalid requirements left %s behind (stat: %v)", filepath.Base(p), err)
		}
	}

	code, stderr = runEdramx(t, "-cpuprofile", cpu, "-memprofile", mem, "-capacity", "16", "-bandwidth", "500", "-quiet")
	if code != 1 || !strings.Contains(stderr, "no feasible configuration") {
		t.Fatalf("edramx -bandwidth 500: exit %d, stderr %q; want exit 1 with no feasible configuration", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("failed run left %s incomplete (stat: %v)", filepath.Base(p), err)
		}
	}
}
