package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// The same seed must give byte-identical request streams, and another
// seed different ones.
func TestSeededRequestBytes(t *testing.T) {
	for _, name := range workloadNames {
		a, err := makeWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeWorkload(name, 7)
		c, _ := makeWorkload(name, 8)
		if !reflect.DeepEqual(a.streams, b.streams) {
			t.Errorf("%s: seed 7 generated two different request streams", name)
		}
		if reflect.DeepEqual(a.streams, c.streams) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", name)
		}
	}
}

// A session stream must wrap onto the live job set it started from: every
// period ends where it began, so the first op's removes are valid again.
func TestSessionPeriodRestoresLiveJobs(t *testing.T) {
	w, _ := makeWorkload("session-churn", 3)
	for c := range w.streams {
		s := &w.streams[c]
		m, err := newSessionMirror(s.open.body)
		if err != nil {
			t.Fatal(err)
		}
		start := slices.Sorted(slices.Values(m.order))
		for _, ops := range [][]op{s.warm, s.ops} {
			for i := range ops {
				if _, _, err := m.apply(&ops[i]); err != nil {
					t.Fatal(err)
				}
			}
			if got := slices.Sorted(slices.Values(m.order)); !slices.Equal(got, start) {
				t.Errorf("connection %d: the live jobs after a period differ from the start", c)
			}
		}
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the printed metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Smoke: each workload against the built schedserver binary, one second
// each, untraced and traced; every check must pass.
func TestWorkloadsAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs schedserver")
	}
	bin := filepath.Join(t.TempDir(), "schedserver")
	build := exec.Command("go", "build", "-o", bin, "treesched/cmd/schedserver")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build schedserver: %v", err)
	}
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(name, 1, 1, traced, bin)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			for _, k := range want {
				if got, ok := res.Metrics[k.Name]; !ok || got.Unit != k.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", name, traced, k.Name, got, k.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
