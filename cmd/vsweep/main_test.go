package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, turns the test binary into vsweep itself: the CLI
// tests re-execute it with their flags to observe real exit codes.
const runMainEnv = "VSWEEP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedLockstepFlag checks that the removed -lockstep flag is
// rejected as unknown, with the flag package's usage exit status 2.
func TestRemovedLockstepFlag(t *testing.T) {
	// A regression would start a sweep: bound it in time and keep its
	// outputs out of the source tree.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-lockstep", "4")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("vsweep -lockstep 4: err %v, want exit status 2\n%s", err, out)
	}
	if want := "flag provided but not defined: -lockstep"; !strings.Contains(string(out), want) {
		t.Errorf("vsweep -lockstep 4 output lacks %q:\n%s", want, out)
	}
}
