package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestPrintedNamesMatchBenchmarkJSON checks that the metrics a run
// prints, with their units, are exactly those BENCHMARK.json declares:
// the end-to-end set for --trace 0 and the per-layer set for --trace 1.
func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	var e2e report
	endToEndMetrics(&e2e, tally{}, time.Second, 0, 0, 0, nil, nil)
	var layers report
	layerMetrics(&layers, tally{}, nil, counters{}, counters{}, &deployment{})
	recoveryMetrics(&layers, 0, recoverTimes{})

	for _, c := range []struct {
		what     string
		declared []decl
		printed  report
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		want := map[string]string{}
		for _, d := range c.declared {
			want[d.Name] = d.Unit
		}
		got := map[string]string{}
		for n, m := range c.printed.m {
			got[n] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v\ndeclared %v", c.what, sorted(got), sorted(want))
		}
	}
}

func sorted(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}
