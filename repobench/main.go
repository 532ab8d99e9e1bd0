// Command repobench is the repository's end-to-end benchmark: it runs
// full Scoop trials of one workload for a wall-clock budget, checks
// every run against exp.Run, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON line. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "trial seed; topology, data, queries and faults all derive from it")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds of timed runs")
	traceFlag := flag.Int("trace", 0, "0: untraced runs, end-to-end metrics; 1: traced runs, per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: repobench -workload {%s} -seed N -seconds S -trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	rep := measure(w, *seed, *seconds, *traceFlag == 1, os.Stderr)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Fprintf(os.Stderr, "%-26s %16.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
