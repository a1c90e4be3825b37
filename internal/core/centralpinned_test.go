package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treesched/internal/gen"
	"treesched/internal/instance"
	"treesched/internal/scenario"
)

// appendCentralRun appends one centralized run's observable output to b:
// its name, the selected instances, the float bits of Profit, DualUB,
// CertifiedRatio, Lambda and Bound, every raise event of its trace, and
// then each of its parts the same way.
func appendCentralRun(b []byte, r *Result) []byte {
	b = append(append(b, r.Name...), 0)
	b = appendInsts(b, r.Selected)
	for _, f := range []float64{r.Profit, r.DualUB, r.CertifiedRatio, r.Lambda, r.Bound} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	if r.Trace != nil {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Trace.Events)))
		for _, ev := range r.Trace.Events {
			for _, v := range []int{int(ev.Inst), ev.Epoch, ev.Stage, ev.Step} {
				b = binary.LittleEndian.AppendUint32(b, uint32(v))
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.Delta))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Parts)))
	for _, part := range r.Parts {
		b = appendCentralRun(b, part)
	}
	return b
}

// TestCentralizedOutputsPinned pins the outputs of every centralized
// registry entry bit for bit. The equivalence suites compare DualUB only
// within a tolerance and never compare a Result's name, its bound or a
// refused precondition's text across versions of the code; this digest
// covers all of them, and the δ of every raise. It runs the non-scale
// scenario presets at three seeds and gen families that reach the rules
// and halves the presets miss: a single tree (sequential's α-free rule),
// mixed heights on trees and lines (both halves of arbitrary) and a
// narrow line. exact runs only where it stays cheap, on at most 12
// demands.
func TestCentralizedOutputsPinned(t *testing.T) {
	const pinned = "8e968ef5b9f17076ac0540c3faf078a1a0dbcf61aed4cda3afb2f4ff16cd6445"
	type family struct {
		name string
		make func(seed int64) *instance.Problem
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	families := []family{
		{"one-tree", func(seed int64) *instance.Problem {
			return gen.TreeProblem(gen.TreeConfig{N: 24, Trees: 1, Demands: 12, Unit: true}, rng(seed))
		}},
		{"mixed-tree", func(seed int64) *instance.Problem {
			return gen.TreeProblem(gen.TreeConfig{N: 24, Trees: 2, Demands: 12, HMin: 0.1, HMax: 1}, rng(seed))
		}},
		{"mixed-line", func(seed int64) *instance.Problem {
			return gen.LineProblem(gen.LineConfig{Slots: 32, Resources: 2, Demands: 12, HMin: 0.1, HMax: 1}, rng(seed))
		}},
		{"narrow-line", func(seed int64) *instance.Problem {
			return gen.LineProblem(gen.LineConfig{Slots: 32, Resources: 2, Demands: 12, HMin: 0.1, HMax: 0.5}, rng(seed))
		}},
	}
	for _, s := range scenario.All() {
		if s.Scale {
			continue
		}
		families = append(families, family{s.Name, func(seed int64) *instance.Problem {
			p, err := s.Generate(scenario.Params{}, seed)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			return p
		}})
	}
	h := sha256.New()
	runs := 0
	for _, f := range families {
		for seed := int64(1); seed <= 3; seed++ {
			p := f.make(seed)
			c, err := Compile(p, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.name, seed, err)
			}
			for _, a := range Algorithms() {
				// ReadsFixedRounds marks the distributed entries, which
				// TestDistributedOutputsPinned covers.
				if a.ReadsFixedRounds || (a.Name == "exact" && len(p.Demands) > 12) {
					continue
				}
				label := fmt.Sprintf("%s/%d/%s", f.name, seed, a.Name)
				b := append([]byte(label), 0)
				opts := Options{Epsilon: 0.25, Seed: uint64(seed), CollectTrace: true}
				if r, _, err := a.Run(c, opts); err != nil {
					b = append(append(b, "error: "...), err.Error()...)
				} else {
					b = appendCentralRun(b, r)
				}
				h.Write(b)
				runs++
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("%d centralized outputs hash to %s, pinned %s", runs, got, pinned)
	}
}
