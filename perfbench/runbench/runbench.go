// Package runbench defines the benchmark's result line and runs the
// benchmark as a user would, for the steadiness and reference commands.
package runbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run runs one workload through perfbench/run.sh in the checkout at dir
// and parses its last output line.
func Run(dir, workload string, seed uint64, seconds, trace int) (Result, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return Result{}, fmt.Errorf("%w\n%s", err, tail(stderr.String(), 20))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

func tail(s string, n int) string {
	l := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(l) > n {
		l = l[len(l)-n:]
	}
	return strings.Join(l, "\n")
}
