package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"tquad/internal/wfs"
)

// TestSmokeOneOpPerWorkload sets up every workload on the small guest
// configuration and runs one checked op of each (two for the
// output-identity check), untraced and traced.
func TestSmokeOneOpPerWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := newBench(context.Background(), name, wfs.Small(), 0, "..", t.TempDir())
			t.Setenv("TMPDIR", b.work)
			defer b.close()
			if _, err := b.setup(); err != nil {
				t.Fatalf("setup: %v", err)
			}
			if err := b.prepareChecks(); err != nil {
				t.Fatalf("checks: %v", err)
			}
			r, err := b.op(nil, 0)
			if err != nil {
				t.Fatalf("op: %v", err)
			}
			if r.wall <= 0 || r.instr == 0 || r.disk <= 0 {
				t.Errorf("op measured wall %v s, %d instructions, %d bytes", r.wall, r.instr, r.disk)
			}
			tr := newTracer()
			if _, err := b.op(tr, 1); err != nil {
				t.Fatalf("traced op: %v", err)
			}
			byName, wall, _ := tr.layerSelf(map[int]bool{1: true})
			if len(wall) != 1 || len(byName) == 0 {
				t.Errorf("traced op left %d root spans and %d layers", len(wall), len(byName))
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON pins the result line to the contract:
// an untraced run reports exactly BENCHMARK.json's end-to-end metrics
// and a traced run exactly its per-layer metrics, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("climbs the ladder")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got map[string]metric, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for _, w := range want {
			if g, ok := got[w.Name]; !ok || g.Unit != w.Unit {
				t.Errorf("%s: %s = %+v (present %v), want unit %q", what, w.Name, g, ok, w.Unit)
			}
		}
	}

	ctx := context.Background()
	b := newBench(ctx, profileLive, wfs.Small(), 0, "..", t.TempDir())
	t.Setenv("TMPDIR", b.work)
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.prepareChecks(); err != nil {
		t.Fatal(err)
	}
	r, err := b.op(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := &measurement{setup: []float64{0.1}, attempted: 1, walls: []float64{r.wall},
		mips: []float64{1}, disk: []float64{1}, rss: []float64{1}, tracedOps: map[int]bool{}}
	res, err := m.result(b, false)
	if err != nil {
		t.Fatal(err)
	}
	same("untraced", res.Metrics, doc.EndToEnd)

	if m.lad, err = runLadder(ctx, newTracer(), wfs.Small(), b.p, b.work); err != nil {
		t.Fatal(err)
	}
	m.tr = newTracer()
	if res, err = m.result(b, true); err != nil {
		t.Fatal(err)
	}
	same("traced", res.Metrics, doc.PerLayer)
}
