// Command perfbench is the repository benchmark.  It runs one named
// workload on the WFS guest for a fixed time, checks every output, and
// prints the end-to-end metrics by name and unit; with --trace 1 it
// instead records spans around every layer call, climbs the layer
// ladder, and prints the per-layer metrics.  The last line of standard
// output is always the result object:
//
//	{"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads, the inputs a seed chooses and the metric map are described
// in perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"tquad/internal/wfs"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// tailBeyond is how many ops must lie beyond the reported tail.
const tailBeyond = 10

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 0, "workload seed (0 = the paper's grid)")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics and the layer ladder")
	flag.Parse()
	if !knownWorkload(*name) {
		log.Fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames, ", "))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		log.Fatalf("bad --seconds %v or --trace %d", *seconds, *traced)
	}
	procs := min(runtime.NumCPU(), schedJobs)
	runtime.GOMAXPROCS(procs)
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		log.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// configFor is the guest configuration a workload runs.
func configFor(name string) wfs.Config {
	if name == serviceJobs {
		return wfs.Small()
	}
	return wfs.Study()
}

// run executes one benchmark run in a scratch directory under the
// checkout's .bench_build, removed on return.
func run(name string, seed int64, window time.Duration, traced bool) (*result, error) {
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-work", strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	// The scheduler records its temporary traces under TMPDIR; keep them
	// in the checkout too.
	if err := os.Setenv("TMPDIR", work); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	facts := hostFacts(seed, name)
	fb, _ := json.Marshal(facts)
	fmt.Printf("perfbench %s seed=%d window=%v trace=%v\nhost %s\n", name, seed, window, traced, fb)

	b := newBench(ctx, name, configFor(name), seed, ".", work)
	defer b.close()
	m, err := measure(b, window, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := m.tr.write(filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-seed%d.json", name, seed)), facts); err != nil {
			return nil, err
		}
	}
	return m.result(b, traced)
}

// measurement is everything one run collected.
type measurement struct {
	setup     []float64
	attempted int
	failed    int
	walls     []float64 // successful measured ops, traced ones excluded
	mips      []float64
	disk      []float64
	rss       []float64 // resident high-water mark over each measured op, MB
	traced    []float64 // traced ops' walls
	tracedOps map[int]bool
	tops      []opResult // successful traced ops
	tr        *tracer
	lad       *ladder
	crit      []string // paper_tables: the critical-path report
}

// measure sets up, warms up (or climbs the ladder), then runs ops until
// the window closes.  In a traced run ops alternate untraced and traced,
// so the tracing overhead is measured under the same conditions.
func measure(b *bench, window time.Duration, traced bool) (*measurement, error) {
	m := &measurement{tracedOps: map[int]bool{}}
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, d)
	}
	if err := b.prepareChecks(); err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	// record counts an op and keeps its figures: measured ops (id >= 0)
	// by whether they were traced; the warm-up op and the jobs=1 op
	// (id < 0) count only towards attempted and failed.
	record := func(r opResult, err error, tracedOp bool, id int) bool {
		m.attempted++
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", id, err)
			return false
		}
		switch {
		case id < 0:
		case tracedOp:
			m.traced = append(m.traced, r.wall)
			m.tracedOps[id] = true
			m.tops = append(m.tops, r)
		default:
			m.walls = append(m.walls, r.wall)
			m.mips = append(m.mips, float64(r.instr)/r.wall/1e6)
			m.disk = append(m.disk, float64(r.disk)/(1<<20))
		}
		return true
	}
	if traced {
		m.tr = newTracer()
		lad, err := runLadder(b.ctx, m.tr, wfs.Study(), b.p, b.work)
		if err != nil {
			return nil, err
		}
		m.lad = lad
		if b.name == paperTables {
			runtime.GC()
			r, err := b.opTables(m.tr, -1, 1)
			if record(r, err, true, -1) {
				m.crit = append(m.crit, criticalPath(r.sched, lad))
			}
		}
	} else {
		r, err := b.warmUp()
		record(r, err, false, -1)
	}
	deadline := time.Now().Add(window)
	for id := 0; time.Now().Before(deadline); id++ {
		tracedOp := traced && id%2 == 1
		var t *tracer
		if tracedOp {
			t = m.tr
		}
		// Two collections: the first moves sync.Pool contents to the
		// victim cache, the second (inside FreeOSMemory) frees them.
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil && id == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: peak RSS covers the whole process: %v\n", err)
		}
		r, err := b.op(t, id)
		if !record(r, err, tracedOp, id) {
			continue
		}
		if !tracedOp {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			m.rss = append(m.rss, rss)
		}
		if tracedOp && b.name == paperTables && len(m.crit) == 1 {
			m.crit = append(m.crit, criticalPath(r.sched, m.lad))
		}
	}
	if traced && b.name == sweepReplay && len(m.tops) > 0 {
		if err := b.checkReplayMatchesLive(m.tops[len(m.tops)-1].sched); err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: replay vs live: %v\n", err)
		}
	}
	return m, nil
}

// result prints the human-readable report and returns the result line.
func (m *measurement) result(b *bench, traced bool) (*result, error) {
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if m.attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	fmt.Printf("fail_ratio       %.4f (%d of %d ops attempted failed an output check or errored)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if !traced {
		tail, pct, ok := tailPercentile(m.walls, tailBeyond)
		put("setup_s", median(m.setup), "s")
		put("op_s_p50", median(m.walls), "s")
		put("op_s_tail", tail, "s")
		put("guest_mips", median(m.mips), "Minstr/s")
		put("peak_rss_mb", median(m.rss), "MB")
		put("disk_mb_per_op", median(m.disk), "MB")
		note := fmt.Sprintf("p%.0f, %d ops beyond it", pct, tailBeyond)
		if !ok {
			note = fmt.Sprintf("max: with %d ops or fewer no percentile has %d beyond it", tailBeyond, tailBeyond)
		}
		fmt.Printf("setup_s          %.4f s (median of %d set-ups)\n", res.Metrics["setup_s"].Value, len(m.setup))
		fmt.Printf("op_s_p50         %.4f s (%d ops)\n", res.Metrics["op_s_p50"].Value, len(m.walls))
		fmt.Printf("op_s_tail        %.4f s (%s)\n", res.Metrics["op_s_tail"].Value, note)
		fmt.Printf("guest_mips       %.2f Minstr/s (median; guest instructions analysed per host second)\n", res.Metrics["guest_mips"].Value)
		fmt.Printf("peak_rss_mb      %.1f MB (median over ops of the resident high-water mark during the op)\n", res.Metrics["peak_rss_mb"].Value)
		fmt.Printf("disk_mb_per_op   %.4f MB (median)\n", res.Metrics["disk_mb_per_op"].Value)
		for _, row := range []struct {
			name string
			xs   []float64
		}{{"op walls (s)", m.walls}, {"op peak RSS (MB)", m.rss}} {
			fmt.Printf("%-17s", row.name)
			for _, x := range row.xs {
				fmt.Printf(" %.3f", x)
			}
			fmt.Println()
		}
		return res, nil
	}
	for name, v := range m.layerMetrics(b) {
		put(name, v.Value, v.Unit)
	}
	fmt.Print(m.lad.format())
	for _, line := range m.crit {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("per-layer metrics")
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}
