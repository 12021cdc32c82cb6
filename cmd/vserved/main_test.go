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

// runMainEnv, when set, turns the test binary into vserved itself: the CLI
// tests re-execute it with their flags to observe real exit codes.
const runMainEnv = "VSERVED_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageErrors checks that usage errors exit 2 before any daemon or
// worker starts: a removed flag is unknown, and -worker needs -coordinator.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"removed -lockstep", []string{"-lockstep", "4"}, "flag provided but not defined: -lockstep"},
		{"worker without coordinator", []string{"-worker"}, "-worker requires -coordinator"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A regression would start a daemon: bound it in time and keep
			// its data directory out of the source tree.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			cmd.Dir = t.TempDir()
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("vserved %v: err %v, want exit status 2\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.stderr) {
				t.Errorf("vserved %v output lacks %q:\n%s", c.args, c.stderr, out)
			}
		})
	}
}
