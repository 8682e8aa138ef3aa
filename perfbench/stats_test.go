package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	v, pct, ok := tailPercentile(xs, 10)
	if !ok || v != 30 || !near(pct, 75) {
		t.Fatalf("tail of 1..40 = %v at p%v (ok=%v), want 30 at p75", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail, want 10", beyond)
	}

	// With few samples the rule still holds: rank n-10, even below the
	// median; with ten or fewer no percentile has ten beyond it, so the
	// maximum is reported and flagged.
	v, pct, ok = tailPercentile(xs[:15], 10)
	if !ok || v != 30 || !near(pct, 100.0/3) {
		t.Errorf("tail of 26..40 = %v at p%v (ok=%v), want 30 at p33", v, pct, ok)
	}
	v, pct, ok = tailPercentile(xs[:10], 10)
	if ok || v != 40 || pct != 100 {
		t.Errorf("tail of 10 samples = %v at p%v (ok=%v), want the max 40 flagged", v, pct, ok)
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "flush", Start: 1, End: 8},
		// Two concurrent runs under the flush, overlapping on [3,5].
		{ID: 2, Parent: 1, Name: "record", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "replay", Start: 3, End: 7},
		// A child reaching outside its parent counts only inside it.
		{ID: 4, Parent: 0, Name: "render", Start: 9, End: 12},
	}
	self := selfTimes(spans)
	want := []float64{
		10 - (7 + 1), // op: flush [1,8] and render clipped to [9,10]
		7 - 5,        // flush: union of [2,5] and [3,7] is [2,7]
		3, 4, 3,      // leaves keep their whole duration
	}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestLadderIncrementsDifferenceTheirBase(t *testing.T) {
	steps := []ladderStep{
		{Name: "native", NsPerInstr: 5},
		{Name: "pin", Base: "native", NsPerInstr: 6},
		{Name: "+core", Base: "pin", NsPerInstr: 11},
		{Name: "decode", NsPerInstr: 4},
		{Name: "replay_core", Base: "decode", NsPerInstr: 7},
	}
	incr, ratio := ladderIncrements(steps)
	for name, want := range map[string]float64{"native": 5, "pin": 1, "+core": 5, "decode": 4, "replay_core": 3} {
		if !near(incr[name], want) {
			t.Errorf("increment(%s) = %v, want %v", name, incr[name], want)
		}
	}
	for name, want := range map[string]float64{"native": 1, "pin": 1.2, "+core": 2.2, "replay_core": 1.4} {
		if !near(ratio[name], want) {
			t.Errorf("ratio(%s) = %v, want %v", name, ratio[name], want)
		}
	}
}

func TestParallelEff(t *testing.T) {
	// One recording (1s) then one replay pass (3s) on a 2-slot
	// scheduler over a 4s flush: half the capacity is used.
	if got := parallelEff(4, 4, 2); !near(got, 0.5) {
		t.Errorf("parallelEff(4, 4, 2) = %v, want 0.5", got)
	}
	if got := parallelEff(8, 4, 2); !near(got, 1) {
		t.Errorf("parallelEff(8, 4, 2) = %v, want 1", got)
	}
	if got := parallelEff(1, 0, 2); got != 0 {
		t.Errorf("parallelEff with no wall = %v, want 0", got)
	}
}

func TestFoldRunsCountsABatchedPassAsOneSlot(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	runs := []runSpan{
		{key: "record/guest", queued: at(0), started: at(0), ended: at(1)},
		// Three members of one pass, started together after the record.
		{key: "flat", queued: at(0), started: at(1), ended: at(2)},
		{key: "quad", queued: at(0), started: at(1.001), ended: at(4)},
		{key: "tquad", queued: at(0), started: at(1.002), ended: at(3)},
	}
	wait, busy, crit := foldRuns(runs)
	if !near(wait, 3.003) {
		t.Errorf("wait = %v, want 3.003 (three members queued behind the record)", wait)
	}
	if !near(busy, 1+3) {
		t.Errorf("busy = %v, want 4 (record + one pass)", busy)
	}
	if !near(crit, 1+3) {
		t.Errorf("critical path = %v, want 4", crit)
	}
}

func TestParamsDefaultSeedIsThePaperGrid(t *testing.T) {
	p := newParams(0)
	if p.liveSlices != 64 || p.tablesSlice != 5000 || p.sweepSlices != [2]float64{64, 256} ||
		p.jobSlices != [2]uint64{200000, 400000} {
		t.Errorf("seed 0 params = %+v, want the paper grid", p)
	}
	for i, c := range sweepCaches {
		if p.caches[i] != canonCache(c) {
			t.Errorf("seed 0 cache %d = %q, want %q", i, p.caches[i], canonCache(c))
		}
	}
	q, r := newParams(7), newParams(7)
	if q.tablesSlice != r.tablesSlice || q.jobSlices != r.jobSlices {
		t.Error("the same seed chose different inputs")
	}
	for seed := int64(1); seed < 50; seed++ {
		p := newParams(seed)
		if p.tablesSlice < 3750 || p.tablesSlice > 6250 || p.liveSlices < 64/1.25 || p.liveSlices > 64/0.75 {
			t.Errorf("seed %d params %+v outside ±25%% of the paper's", seed, p)
		}
	}
}
