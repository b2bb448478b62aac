package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkDef is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line of one run.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quartiles returns the three cut points of sorted xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the default, exclusive).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	var out [3]float64
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		delta := float64(i*(m+1) - j*4)
		switch {
		case j < 1:
			j, delta = 1, 0
		case j >= m:
			j, delta = m-1, 4
		}
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// runSteady runs each workload (or only the named one) n times with
// seeds 1..n as separate processes, the way the benchmark is meant to be
// run, and prints every end-to-end metric's median, quartiles and spread
// (interquartile distance over the median) next to its bound.
func runSteady(benchPath, only string, n int, seconds float64) error {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(blob, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	if seconds <= 0 {
		seconds = float64(def.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range def.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		values := make(map[string][]float64)
		shares := make(map[string]bool)
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			res, err := lastLine(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			share := fmt.Sprintf("%d/%d", res.Failed, res.Attempted)
			shares[strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', -1, 64)] = true
			fmt.Printf("%s seed %d: correct=%v failed %s", wl.Name, seed, res.Correct, share)
			for _, k := range sortedKeys(res.Metrics) {
				fmt.Printf(" %s=%.6g", k, res.Metrics[k].Value)
				values[k] = append(values[k], res.Metrics[k].Value)
			}
			fmt.Println()
		}
		fmt.Printf("%s: %d distinct failed shares\n", wl.Name, len(shares))
		for _, m := range def.EndToEnd {
			xs := values[m.Name]
			if len(xs) == 0 {
				fmt.Printf("  %-16s missing\n", m.Name)
				continue
			}
			q := quartiles(xs)
			spread := (q[2] - q[0]) / q[1]
			verdict := "steady"
			if spread >= m.Bound/3 {
				verdict = "SPREAD ABOVE A THIRD OF THE BOUND"
			}
			fmt.Printf("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  bound %.2f  %s\n",
				m.Name, q[1], q[0], q[2], spread, m.Bound, verdict)
		}
	}
	return nil
}

func lastLine(out []byte) (runResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
