package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildAll builds the daemons and this driver into a temporary
// directory, as run.sh does for a real invocation.
func buildAll(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	bin := t.TempDir()
	for _, pkg := range []string{"rpcv/cmd/rpcv-coordinator", "rpcv/cmd/rpcv-server", "."} {
		out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return bin
}

// childrenOf lists live processes whose executable lies in dir.
func childrenOf(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil || !strings.HasPrefix(exe, dir+string(os.PathSeparator)) || strings.HasSuffix(exe, "/perfbench") {
			continue
		}
		if stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat")); err == nil && isZombie(stat) {
			out = append(out, strconv.Itoa(pid)+" (unreaped)")
			continue
		}
		out = append(out, strconv.Itoa(pid)+" "+exe)
	}
	return out
}

func isZombie(stat []byte) bool {
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
}

// An interrupted run must stop and reap every daemon it started, and
// print no result line.
func TestInterruptedRunLeavesNoDaemons(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()
	cmd := exec.Command(filepath.Join(bin, "perfbench"), "-bin", bin, "-work", work,
		"--workload", "churn", "--seed", "3", "--seconds", "30", "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt mid-load: set-up and warm-up take a few seconds, and
	// churn kills and restarts servers while the load runs.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && len(childrenOf(t, bin)) < 5 {
		time.Sleep(50 * time.Millisecond)
	}
	if n := len(childrenOf(t, bin)); n < 5 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("only %d daemons came up", n)
	}
	time.Sleep(8 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatal("an interrupted run exited 0")
	}
	if left := childrenOf(t, bin); len(left) > 0 {
		t.Fatalf("daemons outlived the run: %v", left)
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("an interrupted run printed a result:\n%s", stdout.String())
	}
	if entries, _ := os.ReadDir(work); len(entries) > 0 {
		t.Errorf("grid directories left behind: %d", len(entries))
	}
}

// Without the repository around it the benchmark cannot build the
// daemons, and must fail fast without printing a result.
func TestRunScriptFailsOutsideTheRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Go toolchain")
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod", "main.go"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "perfbench", f), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = root
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run.sh succeeded without the daemons' sources")
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("printed a result: %s", out)
	}
}
