package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestVetToolExitStatus builds the vettool, seeds a scratch module, and
// exercises the full `go vet -vettool` protocol end to end: a violation makes
// vet exit non-zero, so does a one-hop helper handed a slice inside a map
// range, a justified ignore silences a violation, and an ignore that no
// longer covers anything is itself reported by staleignore. The tool's
// -flags answer lists only protocol flags and enable switches.
func TestVetToolExitStatus(t *testing.T) {
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "pebblevet")
	if runtime.GOOS == "windows" {
		tool += ".exe"
	}
	if out, err := command(t, "", "go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "seedtest")
	if err := os.MkdirAll(mod, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(mod, "go.mod"), "module seedtest\n\ngo 1.22\n")

	vet := func() (string, error) {
		out, err := command(t, mod, "go", "vet", "-vettool="+tool, "./...").CombinedOutput()
		return string(out), err
	}

	// A seeded determinism violation: map iteration order folded into a string.
	writeFile(t, filepath.Join(mod, "main.go"), `package main

import "fmt"

func main() {
	m := map[string]int{"a": 1, "b": 2}
	s := ""
	for k := range m {
		s += k
	}
	fmt.Println(s)
}
`)
	out, err := vet()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on a seeded violation; output:\n%s", out)
	}
	if !strings.Contains(out, "map iteration order is nondeterministic") {
		t.Fatalf("expected determinism diagnostic in vet output, got:\n%s", out)
	}

	// A one-hop violation: the body parks the helper's result in a local,
	// but the helper is handed the shared slice.
	writeFile(t, filepath.Join(mod, "main.go"), `package main

import "fmt"

func main() {
	m := map[int]int{1: 10, 2: 20}
	dst := make([]int, 1)
	for k, v := range m {
		if ok := record(dst, k, v); !ok {
			continue
		}
	}
	fmt.Println(dst)
}

func record(dst []int, k, v int) bool {
	dst[k%len(dst)] = v
	return true
}
`)
	out, err = vet()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on a seeded one-hop violation; output:\n%s", out)
	}
	if !strings.Contains(out, "map iteration order is nondeterministic") {
		t.Fatalf("expected determinism diagnostic for the one-hop helper, got:\n%s", out)
	}

	// The same violation with a justified trailing ignore passes clean — and
	// the directive is live, so staleignore stays quiet too.
	writeFile(t, filepath.Join(mod, "main.go"), `package main

import "fmt"

func main() {
	m := map[string]int{"a": 1, "b": 2}
	s := ""
	for k := range m { //pebblevet:ignore determinism -- seed: order accepted
		s += k
	}
	fmt.Println(s)
}
`)
	if out, err := vet(); err != nil {
		t.Fatalf("go vet -vettool failed on a suppressed violation: %v\n%s", err, out)
	}

	// Remove the violation but keep the directive: now the directive itself
	// is the finding.
	writeFile(t, filepath.Join(mod, "main.go"), `package main

import "fmt"

func main() {
	s := "ab" //pebblevet:ignore determinism -- seed: order accepted
	fmt.Println(s)
}
`)
	out, err = vet()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on a stale ignore; output:\n%s", out)
	}
	if !strings.Contains(out, "stale //pebblevet:ignore determinism") {
		t.Fatalf("expected staleignore diagnostic in vet output, got:\n%s", out)
	}

	// go vet forwards only the flags -flags describes; an analyzer option
	// would appear as <analyzer>.<name>.
	flagsOut, err := command(t, "", tool, "-flags").Output()
	if err != nil {
		t.Fatalf("%s -flags: %v", tool, err)
	}
	var flags []struct{ Name string }
	if err := json.Unmarshal(flagsOut, &flags); err != nil {
		t.Fatalf("decoding -flags output: %v\n%s", err, flagsOut)
	}
	for _, f := range flags {
		if strings.Contains(f.Name, ".") {
			t.Errorf("-flags lists analyzer option %q; analyzers take no options", f.Name)
		}
	}
}

func command(t *testing.T, dir, name string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	return cmd
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
