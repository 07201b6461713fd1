package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// samples groups a results file's values by workload, then metric.
type samples map[string]map[string][]float64

func readRecords(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Correct {
			continue // an incorrect run's numbers describe a wrong answer
		}
		m := out[rec.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[rec.Workload] = m
		}
		for name, v := range rec.Metrics {
			m[name] = append(m[name], v)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and metric present in both
// files. An end-to-end metric is flagged when its median got worse by
// more than its bound; a per-layer metric when its median moved by more
// than its spread (the larger of the two sides' interquartile ranges).
// It reports whether any end-to-end metric regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	before, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	after, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-12s %-28s %-6s %14s %14s %9s %12s  %s\n", "workload", "metric", "unit", "old median", "new median", "change", "bound/spread", "flag")
	for _, wl := range allWorkloads() {
		ob, nb := before[wl.name], after[wl.name]
		if ob == nil || nb == nil {
			continue
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range defs {
				ov, nv := ob[m.Name], nb[m.Name]
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				om, nm := median(ov), median(nv)
				change, shown := 0.0, "n/a"
				if om != 0 {
					change = (nm - om) / math.Abs(om)
					shown = fmt.Sprintf("%.1f%%", 100*change)
				}
				flag, limit := "", ""
				if m.Bound > 0 {
					limit = fmt.Sprintf("%.0f%%", 100*m.Bound)
					worse := change
					if m.Better == "higher" {
						worse = -change
					}
					switch {
					case worse > m.Bound:
						flag, regressed = "REGRESSED", true
					case worse < -m.Bound:
						flag = "improved"
					}
				} else {
					o1, o3 := quartiles(ov)
					n1, n3 := quartiles(nv)
					spread := math.Max(o3-o1, n3-n1)
					limit = fmt.Sprintf("%.4g", spread)
					if math.Abs(nm-om) > spread {
						flag = "moved"
					}
				}
				row := fmt.Sprintf("%-12s %-28s %-6s %14.4f %14.4f %9s %12s  %s",
					wl.name, m.Name, m.Unit, om, nm, shown, limit, flag)
				fmt.Fprintln(w, strings.TrimRight(row, " "))
			}
		}
	}
	return regressed, nil
}
