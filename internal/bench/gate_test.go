package bench

import (
	"strings"
	"testing"

	"treesched/internal/obs"
)

// TestGateReport checks the gate convention on hand-built reports: wall
// clock compared only like with like, allocation counts gated per arm.
func TestGateReport(t *testing.T) {
	onlineCell := func(delta, cold float64) *OnlineReport {
		return &OnlineReport{GOMAXPROCS: 1, Entries: []OnlineEntry{{
			Scenario: "videowall-line", Algo: "line-unit", Churn: 0.02,
			DeltaNsPerResolve: 300_000, ColdNsPerResolve: 430_000,
			DeltaAllocsPerResolve: delta, ColdAllocsPerResolve: cold,
			SpeedupNs: 430_000.0 / 300_000, SpeedupAllocs: cold / delta,
		}}}
	}
	distReport := func(procs int, speedup float64) *DistReport {
		return &DistReport{GOMAXPROCS: procs, Entries: []DistEntry{{
			Scenario: "binary-fanout", Algo: "dist-unit", Demands: 40, Workers: procs,
			PoolRoundsPerSec: 400_000, PoolPeakGoroutines: procs + 1, SpeedupVsBlocking: speedup,
		}}}
	}
	loadReport := func(quick bool, p99 int64, sat float64) *LoadReport {
		r := &LoadReport{GOMAXPROCS: 1, Quick: quick,
			ShardEntries:    []LoadShardEntry{{Clients: 16, Shards: 2, SingleShardRPS: 1000, ShardedRPS: 1000, Speedup: 1}},
			RecorderEntries: []LoadRecorderEntry{{Clients: 16, BaselineRPS: 1000, RecorderRPS: 990, TracedRPS: 900, RecorderOverhead: 0.01}},
		}
		for _, arrival := range []string{ArrivalPoisson, ArrivalBursty} {
			for _, clients := range []int{4, 16} {
				r.Entries = append(r.Entries, LoadEntry{
					Arrival: arrival, Clients: clients, SaturationRPS: sat, AchievedRPS: sat / 2,
					Completed: 100, Latency: obs.Summary{P50Ns: p99 / 4, P99Ns: p99},
				})
			}
		}
		return r
	}

	for _, tc := range []struct {
		name  string
		gates []Gate
		want  map[string]string // gate name → PASS, FAIL or INERT
	}{
		{
			name:  "dist baseline at another GOMAXPROCS",
			gates: CheckDist(distReport(2, 4.0), distReport(1, 6.0)),
			want: map[string]string{
				"binary-fanout/dist-unit@40 speedup vs blocking":      "INERT",
				"binary-fanout/dist-unit@40 pool goroutine peak":      "PASS",
				"binary-fanout/dist-unit@40 pool rounds/sec backstop": "PASS",
			},
		},
		{
			name:  "dist baseline at the same GOMAXPROCS",
			gates: CheckDist(distReport(1, 4.0), distReport(1, 6.0)),
			want:  map[string]string{"binary-fanout/dist-unit@40 speedup vs blocking": "FAIL"},
		},
		{
			name:  "online cold arm improved by 30%",
			gates: CheckOnline(onlineCell(97, 0.7*2954), onlineCell(97, 2954)),
			want: map[string]string{
				"videowall-line/line-unit@0.02 delta allocs/resolve": "PASS",
				"videowall-line/line-unit@0.02 cold allocs/resolve":  "PASS",
				"videowall-line/line-unit@0.02 ns speedup backstop":  "PASS",
			},
		},
		{
			name:  "online delta arm rose by 30%",
			gates: CheckOnline(onlineCell(1.3*97, 2954), onlineCell(97, 2954)),
			want: map[string]string{
				"videowall-line/line-unit@0.02 delta allocs/resolve": "FAIL",
				"videowall-line/line-unit@0.02 cold allocs/resolve":  "PASS",
			},
		},
		{
			name:  "quick load run against a full baseline",
			gates: CheckLoad(loadReport(true, 40e6, 500), loadReport(false, 10e6, 1000)),
			want: map[string]string{
				"poisson/4 p99 vs baseline":         "INERT",
				"poisson/4 saturation vs baseline":  "INERT",
				"bursty/16 p99 vs baseline":         "INERT",
				"bursty/16 saturation vs baseline":  "INERT",
				"poisson/4 sanity":                  "PASS",
				"bursty/4 herds coalesce":           "INERT",
				"recorder/16 clients overhead":      "PASS",
				"sharded caches contention speedup": "INERT",
			},
		},
		{
			name:  "full load run against a full baseline",
			gates: CheckLoad(loadReport(false, 40e6, 500), loadReport(false, 10e6, 1000)),
			want: map[string]string{
				"poisson/4 p99 vs baseline":        "FAIL",
				"poisson/4 saturation vs baseline": "FAIL",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := map[string]Gate{}
			for _, g := range tc.gates {
				if _, dup := got[g.Name]; dup {
					t.Errorf("gate %q reported twice", g.Name)
				}
				got[g.Name] = g
			}
			for name, status := range tc.want {
				g, ok := got[name]
				if !ok {
					t.Errorf("no gate %q", name)
					continue
				}
				if line := g.String(); !strings.HasPrefix(line, status) {
					t.Errorf("%s, want %s", line, status)
				}
			}
		})
	}
}
