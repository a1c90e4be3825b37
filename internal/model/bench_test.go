package model

import (
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/treedecomp"
)

// BenchmarkBuild times one cold Build, decompositions included, on the
// problem shapes of perfbench's fresh-pair workload: 160 demands on four
// 64-vertex caterpillar or binary trees, under the full model's options
// (the ideal decomposition and Lemma 4.2 critical sets) and under the
// Appendix-A options the sequential algorithm compiles with, and on four
// 64-slot lines. Workers is 0, GOMAXPROCS, as the server builds.
func BenchmarkBuild(b *testing.B) {
	const demands = 160
	tree := func(shape gen.TreeShape) *instance.Problem {
		return gen.TreeProblem(gen.TreeConfig{N: 64, Trees: 4, Demands: demands, Shape: shape, Unit: true, AccessProb: 0.6},
			rand.New(rand.NewSource(1)))
	}
	line := gen.LineProblem(gen.LineConfig{Slots: 64, Resources: 4, Demands: demands, Unit: true, AccessProb: 0.6, MaxProc: 6, Slack: 6},
		rand.New(rand.NewSource(1)))
	full := Options{}
	appendixA := Options{DecompKind: treedecomp.KindRootFixing, CaptureWingsPi: true}
	for _, bc := range []struct {
		name string
		p    *instance.Problem
		opts Options
	}{
		{"caterpillar/full", tree(gen.ShapeCaterpillar), full},
		{"caterpillar/appendix-a", tree(gen.ShapeCaterpillar), appendixA},
		{"binary/full", tree(gen.ShapeBinary), full},
		{"binary/appendix-a", tree(gen.ShapeBinary), appendixA},
		{"line", line, full},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(bc.p, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
