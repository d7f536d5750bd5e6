package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload n times, seeds 1..n, each in its own
// process, and prints each end-to-end metric's median, quartiles and spread
// (quartile distance over median) against its bound in BENCHMARK.json. A
// metric is steady when its spread is under a third of its bound. It
// returns the process exit code: 1 when any spread is over its bound.
func steadiness(name string, n, seconds int) int {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench: reading BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinbench:", err)
		return 1
	}
	values := map[string][]float64{}
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "joinbench: seed %d: %v\n", seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "joinbench: seed %d: bad result %s\n", seed, lines[len(lines)-1])
			return 1
		}
		var sb bytes.Buffer
		fmt.Fprintf(&sb, "seed %2d:", seed)
		for _, m := range bf.EndToEnd {
			v := res.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			fmt.Fprintf(&sb, " %s=%.5g", m.Name, v)
		}
		fmt.Println(sb.String())
	}
	code := 0
	fmt.Printf("steadiness of %s over %d seeds (spread = (q3-q1)/median, steady below bound/3):\n", name, n)
	for _, m := range bf.EndToEnd {
		q := quartiles(values[m.Name])
		spread := (q[2] - q[0]) / q[1]
		verdict := "steady"
		switch {
		case spread > m.Bound:
			verdict, code = "OVER BOUND", 1
		case spread > m.Bound/3:
			verdict = "within bound, above bound/3"
		}
		fmt.Printf("  %-28s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %.4f bound %.2f %s\n",
			m.Name, q[1], m.Unit, q[0], q[2], spread, m.Bound, verdict)
	}
	return code
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	if len(s) < 2 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
