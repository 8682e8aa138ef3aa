// Command tquad runs the tQUAD temporal memory-bandwidth profiler on the
// WFS case-study workload and prints per-kernel bandwidth series and
// statistics — the data behind the paper's Figures 6/7 and Table IV.
//
// Usage:
//
//	tquad [-config small|study] [-slice N[,N...]] [-cache SPEC[;SPEC...]]
//	      [-jobs N]
//	      [-timeout D] [-max-icount N] [-retries N] [-resume DIR]
//	      [-stack include|exclude] [-ignore-libs]
//	      [-metric reads|writes|both] [-kernels top|last|all]
//	      [-width N] [-csv]
//	      [-record FILE] [-replay FILE [-salvage]]
//	      [-metrics FILE] [-trace FILE] [-journal FILE]
//	      [-serve ADDR] [-stall-window D]
//
// Every live invocation is a grid of runs executed by the parallel
// experiment scheduler (bounded by -jobs, default GOMAXPROCS) — the same
// grid a jobd job submits for the same knobs.  -slice accepts a
// comma-separated list of intervals (duplicates are collapsed) and each
// interval is one run; the report prints each run's charts and
// statistics in interval order.  A one-run grid executes the guest live;
// a larger grid records it once and replays the recording for every
// run.  If any run fails the command reports every failure and exits
// non-zero.  -csv, -json and -svg apply to one-run grids only.
//
// -cache additionally simulates a memory hierarchy (set-associative LRU
// caches with write-back/write-allocate plus a DRAM open-row model) over
// the same access stream, e.g. -cache l1=32k/8/64,l2=256k/8/64,llc=8m/16/64
// (per level: capacity/ways/line-size; k/m/g suffixes allowed).  The run
// gains a per-kernel hit-rate/off-chip table, an off-chip bytes-per-slice
// chart and a hierarchy digest.  A semicolon-separated list of
// hierarchies sweeps cache geometries: all of them — crossed with every
// -slice interval — are profiled off a single recorded guest execution
// and a closing comparison table ranks the geometries.
//
// Execution is supervised: SIGINT/SIGTERM (and the -timeout deadline)
// stop the guest at its next basic block and exit cleanly, removing any
// partially written -record file and temp traces.  -max-icount overrides
// the guest instruction budget.  -retries re-runs transiently failed
// runs with deterministic backoff and -resume DIR journals completed
// runs (and, for recorded grids, the trace) into DIR so a rerun skips
// completed guest work.
//
// -record FILE keeps the grid's recorded guest event stream as a compact
// binary trace (fsynced before the success message prints); it runs any
// grid, one run included, in record/replay mode and takes the trace out
// of the -resume DIR when one is given.  -replay then profiles that
// trace — at any slice interval, any number of times — without
// executing the guest again.  Replays verify the trace's checksums and
// fail on damage; -salvage instead replays around damaged chunks and
// reports exactly what was lost.  Inspect recorded traces with tqdump
// -etrace.
//
// -metrics writes a Prometheus text-format snapshot, -trace a
// chrome://tracing-compatible JSON trace of the pipeline stages (open it
// at chrome://tracing or https://ui.perfetto.dev), and -journal a JSONL
// event journal; with any of them the report closes with the pipeline
// stage and block-engine tables.  Counters accumulate over every run of
// the grid, and the tquad_run_slowdown gauge holds the slowest run's
// slowdown.
//
// -serve starts an embedded telemetry server for the duration of the
// invocation (not -replay): GET / is a live progress page with per-run
// progress bars and a bandwidth chart of completed runs, /metrics the
// Prometheus registry, /events a Server-Sent Events stream of run
// lifecycle events keyed by run configuration (append ?format=jsonl
// for plain JSONL), and /debug/pprof/ the Go profiler.  -stall-window
// flags a run as stalled — a `stalled` event plus the
// tquad_sched_stalled_total counter — after that long without a
// heartbeat.  With -serve unset none of this machinery is built and the
// execution hot path is untouched.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"tquad/internal/cliutil"
	"tquad/internal/core"
	"tquad/internal/durable"
	"tquad/internal/etrace"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

// options is one invocation's settings, shared by the live and -replay
// paths.
type options struct {
	config     string
	intervals  []uint64
	caches     []string // canonical memsim keys
	ignoreLibs bool
	render     study.RenderOptions // its IncludeStack is -stack's
	csv        bool
	jsonFile   string
	svgFile    string
	metricsOut string
	traceOut   string
	journalOut string
	record     string
	salvage    bool
	jobs       int
	replayJobs int // decode workers; 1 decodes inline, 0 = GOMAXPROCS
	retries    int
	resume     string
	budget     uint64
	interpret  bool // run guests on the reference interpreter (-engine=step)

	// The observer stays nil (zero-cost) unless an export was requested or
	// the telemetry server needs a registry; the tracker and chart exist
	// only under -serve.
	obs     *obs.Observer
	tracker *live.Tracker
	chart   *live.ChartData
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tquad: ")
	var o options
	flag.StringVar(&o.config, "config", "small", "workload configuration: small or study")
	slice := flag.String("slice", "0", "time slice interval(s) in instructions, comma-separated (0 = ~64 slices); more than one runs a parallel sweep")
	cache := flag.String("cache", "", "simulate a cache hierarchy, e.g. l1=32k/8/64,l2=256k/8/64,llc=8m/16/64; semicolon-separated list sweeps hierarchies off one recorded execution")
	flag.IntVar(&o.jobs, "jobs", 0, "maximum concurrently executing runs (0 = GOMAXPROCS)")
	stack := flag.String("stack", "include", "stack-area accesses: include or exclude")
	flag.BoolVar(&o.ignoreLibs, "ignore-libs", false, "exclude OS/library routine bandwidth")
	flag.StringVar(&o.render.Metric, "metric", "reads", "plotted metric: reads, writes or both")
	flag.StringVar(&o.render.Kernels, "kernels", "top", "kernel set: top (ten), last (ten) or all")
	flag.IntVar(&o.render.Width, "width", 64, "chart width in characters")
	flag.BoolVar(&o.csv, "csv", false, "emit raw per-slice CSV instead of charts")
	flag.StringVar(&o.jsonFile, "json", "", "also write the full profile as JSON to this file")
	flag.StringVar(&o.svgFile, "svg", "", "render the bandwidth heatmap (the paper's figure) as SVG to this file")
	flag.StringVar(&o.metricsOut, "metrics", "", "write a Prometheus text-format metrics snapshot to this file")
	flag.StringVar(&o.traceOut, "trace", "", "write a chrome://tracing JSON trace of the pipeline stages to this file")
	flag.StringVar(&o.journalOut, "journal", "", "write a JSONL event journal (spans + metrics) to this file")
	flag.StringVar(&o.record, "record", "", "record the guest event stream to this file")
	replayIn := flag.String("replay", "", "replay a recorded event stream instead of executing the guest")
	flag.BoolVar(&o.salvage, "salvage", false, "with -replay: replay around damaged chunks and report the gap")
	flag.IntVar(&o.replayJobs, "replay-jobs", 1, "trace-decode workers for -replay and sweep replays: 1 = sequential, 0 = GOMAXPROCS")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
	flag.Uint64Var(&o.budget, "max-icount", 0, "guest instruction budget per run (0 = default)")
	flag.IntVar(&o.retries, "retries", 0, "retries per run after transient failures")
	flag.StringVar(&o.resume, "resume", "", "checkpoint journal directory for resumable runs")
	engine := flag.String("engine", "block", "execution engine: block (pre-decoded basic blocks) or step (reference interpreter)")
	serveAddr := flag.String("serve", "", "serve live telemetry (progress page, /metrics, /events, pprof) on this address, e.g. :8080")
	stallWin := flag.Duration("stall-window", 10*time.Second, "with -serve: flag a run as stalled after this long without a heartbeat (0 = never)")
	flag.Parse()

	cfg, err := wfs.ConfigByName(o.config)
	if err != nil {
		log.Fatal(err)
	}
	o.render.IncludeStack = *stack == "include"
	if *stack != "include" && *stack != "exclude" {
		log.Fatalf("bad -stack %q", *stack)
	}
	if o.jobs < 0 {
		log.Fatalf("bad -jobs %d: must be >= 0", o.jobs)
	}
	if o.replayJobs < 0 {
		log.Fatalf("bad -replay-jobs %d: must be >= 0", o.replayJobs)
	}
	if o.retries < 0 {
		log.Fatalf("bad -retries %d: must be >= 0", o.retries)
	}
	if *engine != "block" && *engine != "step" {
		log.Fatalf("bad -engine %q: must be block or step", *engine)
	}
	o.interpret = *engine == "step"
	if o.record != "" && *replayIn != "" {
		log.Fatal("-record and -replay are mutually exclusive")
	}
	if o.salvage && *replayIn == "" {
		log.Fatal("-salvage applies to -replay only")
	}
	if *replayIn != "" && (*serveAddr != "" || o.retries != 0 || o.resume != "") {
		log.Fatal("-serve, -retries and -resume apply to live runs only, not -replay")
	}
	// Every output path is probed before any guest work: a typo'd export
	// flag fails in milliseconds, not after the run.
	if err := cliutil.EnsureWritableAll(
		"-json", o.jsonFile, "-svg", o.svgFile, "-metrics", o.metricsOut,
		"-trace", o.traceOut, "-journal", o.journalOut, "-record", o.record,
	); err != nil {
		log.Fatal(err)
	}
	if o.intervals, err = parseSlices(*slice); err != nil {
		log.Fatal(err)
	}
	if o.caches, err = parseCaches(*cache); err != nil {
		log.Fatal(err)
	}
	if (len(o.intervals) > 1 || len(o.caches) > 1) && (o.csv || o.jsonFile != "" || o.svgFile != "") {
		log.Fatal("-csv, -json and -svg apply to single runs only")
	}

	// SIGINT/SIGTERM (and -timeout) cancel the run context: the guest
	// stops at its next basic block, partial outputs are removed, and
	// the process exits non-zero instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serveAddr != "" || o.metricsOut != "" || o.traceOut != "" || o.journalOut != "" {
		o.obs = obs.NewObserver()
	}
	if *serveAddr != "" {
		o.chart = live.NewChartData("effective bandwidth of completed runs", "B/instr")
		o.tracker = live.NewTracker(live.TrackerOptions{Registry: o.obs.Registry(), StallWindow: *stallWin})
		defer o.tracker.Close()
		srv, err := live.Serve(*serveAddr, live.Options{
			Registry: o.obs.Registry(),
			Tracker:  o.tracker,
			Chart:    o.chart.SVG,
			Title:    "tquad " + o.config,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		// The bound address goes to stdout: with -serve :0 the kernel picks
		// the port, and scripts (and the daemon's tests) read it from here.
		fmt.Printf("live telemetry at %s\n", srv.URL())
	}

	if *replayIn != "" {
		err = runReplay(ctx, *replayIn, &o)
	} else {
		err = runGrid(ctx, cfg, &o)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runGrid executes one tQUAD run per interval×hierarchy combination
// through the parallel scheduler and prints the report in sweep order.
// A one-run grid executes live; a larger grid — or any grid under
// -record or -resume, whose checkpoint journal then keeps the trace —
// shares one recorded guest execution, however many hierarchies it
// compares.
func runGrid(ctx context.Context, cfg wfs.Config, o *options) (err error) {
	if o.record != "" {
		// A failed or cancelled run must not leave a partial (or the
		// pre-probed empty) trace file behind masquerading as a recording.
		defer func() {
			if err != nil {
				os.Remove(o.record)
			}
		}()
	}
	s, err := study.NewObserved(cfg, o.obs)
	if err != nil {
		return err
	}
	s.W.Interpret = o.interpret
	sch := study.NewScheduler(s, o.jobs)
	defer sch.Close()
	sch.SetContext(ctx)
	sch.SetRetries(o.retries)
	sch.SetMaxInstr(o.budget)
	sch.SetReplayJobs(o.replayJobs)
	if o.tracker != nil {
		sch.SetEvents(o.tracker)
	}
	ckDir := o.resume
	if o.record != "" && ckDir == "" {
		// The recording lands in a checkpoint journal beside FILE, from
		// which it is renamed into place once every run has succeeded.
		if ckDir, err = os.MkdirTemp(filepath.Dir(o.record), ".tquad-record-*"); err != nil {
			return err
		}
		defer os.RemoveAll(ckDir)
	}
	if ckDir == "" && len(o.intervals) == 1 && len(o.caches) <= 1 {
		sch.SetReplay(false)
	}
	var ck *study.Checkpoint
	if ckDir != "" {
		if ck, err = study.OpenCheckpoint(ckDir); err != nil {
			return err
		}
		defer ck.Close()
		sch.SetCheckpoint(ck)
		if done := len(ck.Completed()); done > 0 {
			log.Printf("resuming: %d run(s) already completed in %s", done, ckDir)
		}
	}
	grid, err := sch.SubmitGrid(o.intervals, o.caches, o.render.IncludeStack, o.ignoreLibs)
	if err != nil {
		return err
	}
	// Drain the grid before printing: any failure means a non-zero exit
	// with no partial output.
	if errs := sch.Flush(); len(errs) > 0 {
		for _, e := range errs {
			log.Print(e)
		}
		return fmt.Errorf("%d of %d runs failed", len(errs), grid.Len())
	}
	results, err := grid.Results()
	if err != nil {
		return err
	}
	for _, res := range results {
		o.chart.Add(res.Key, study.EffectiveBandwidth(res.Temporal))
	}
	if o.record != "" {
		path, ok := ck.PersistedTrace(study.RunConfig{}.ExecKey())
		if !ok {
			return fmt.Errorf("record: no complete trace in %s", ckDir)
		}
		// The journal keeps traces private (0600); FILE gets the mode a
		// freshly created file would have had.
		err := os.Rename(path, o.record)
		if err == nil {
			err = os.Chmod(o.record, 0o644)
		}
		if err == nil {
			err = durable.SyncDir(filepath.Dir(o.record))
		}
		if err != nil {
			return fmt.Errorf("record: %w", err)
		}
		fmt.Printf("event trace written to %s\n", o.record)
	}

	reportSpan := o.obs.Tracer().Start("report")
	if len(results) == 1 {
		err = o.printRun("tQUAD", results[0])
	} else {
		grid.WriteReport(os.Stdout, results, o.render)
	}
	reportSpan.End()
	if err != nil {
		return err
	}
	return o.finish(results)
}

// runReplay profiles a recorded event trace once per grid run,
// sequentially — replays are cheap enough that a scheduler would be
// overkill, and -replay must never execute the guest, not even to size
// -slice 0: that comes from the trace's own instruction total.
func runReplay(ctx context.Context, path string, o *options) error {
	intervals, err := study.ResolveSlices(o.intervals, func() (uint64, error) { return traceICount(path, o.salvage) })
	if err != nil {
		return err
	}
	var results []*study.RunResult
	for i, cfg := range study.GridConfigs(intervals, o.caches, o.render.IncludeStack, o.ignoreLibs) {
		if i > 0 {
			fmt.Println()
		}
		res, err := replayOne(ctx, path, cfg, o)
		if err != nil {
			return err
		}
		reportSpan := o.obs.Tracer().Start("report")
		err = o.printRun("tQUAD (replay of "+path+")", res)
		reportSpan.End()
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	return o.finish(results)
}

// traceICount reads a recording's instruction total for -slice 0.
func traceICount(path string, salvage bool) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	info, err := etrace.Stat(f, fi.Size())
	if err != nil || !info.Complete {
		// Sizing needs the trailer's instruction total, which a damaged
		// trace may not have even in salvage mode.
		if salvage {
			return 0, fmt.Errorf("%s: cannot size slices from a damaged trace; pass an explicit -slice", path)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		return 0, fmt.Errorf("%s: incomplete trace (no end record)", path)
	}
	return info.FinalICount, nil
}

// replayOne replays the trace once through the tQUAD tool (and the
// cache simulator when cfg names a hierarchy) and returns the result a
// scheduler run of cfg would have produced.
func replayOne(ctx context.Context, path string, cfg study.RunConfig, o *options) (*study.RunResult, error) {
	tr := o.obs.Tracer()
	run := tr.Start("run")
	defer run.End()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}

	instrument := tr.Start("instrument")
	pr, err := etrace.NewParallelReplayer(f, fi.Size(), etrace.ParallelOptions{Jobs: o.replayJobs, Salvage: o.salvage})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	host := pr.NewConsumer()
	tool := core.Attach(host, core.Options{
		SliceInterval: cfg.SliceInterval,
		IncludeStack:  cfg.IncludeStack,
		ExcludeLibs:   cfg.ExcludeLibs,
	})
	var memTool *memsim.Tool
	if cfg.Cache != "" {
		mc, err := memsim.ParseConfig(cfg.Cache)
		if err == nil {
			memTool, err = memsim.Attach(host, memsim.Options{
				Config:        mc,
				SliceInterval: cfg.SliceInterval,
				ExcludeLibs:   cfg.ExcludeLibs,
			})
		}
		if err != nil {
			return nil, err
		}
	}
	instrument.End()

	replay := tr.Start("replay")
	if err := pr.ReplayContext(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	replay.SetInstr(host.ICount())
	rb, wb := host.Traffic()
	replay.SetBytes(rb + wb)
	replay.End()
	if rep := host.SalvageReport(); rep != nil && rep.Damaged() {
		fmt.Printf("salvage: %s\n", rep)
	}
	if host.ExitCode() != 0 {
		return nil, fmt.Errorf("%s: recorded guest exit code %d", path, host.ExitCode())
	}

	res := &study.RunResult{
		Config: cfg, Key: cfg.Key(),
		ICount: host.ICount(), Overhead: host.Overhead(), Time: host.Time(),
		Breakdown: tool.Breakdown(),
	}
	snapshot := tr.Start("snapshot")
	res.Temporal = tool.Snapshot()
	snapshot.SetInstr(res.Temporal.TotalInstr)
	snapshot.End()
	reg := o.obs.Registry()
	host.PublishMetrics(reg)
	tool.PublishMetrics(reg)
	if memTool != nil {
		res.Mem = memTool.Snapshot()
		memTool.PublishMetrics(reg)
	}
	return res, nil
}

// printRun writes one run's -json and -svg exports, then its report
// under label: the header line, then CSV rows (-csv) or the report body.
func (o *options) printRun(label string, res *study.RunResult) error {
	if o.jsonFile != "" {
		if err := cliutil.WriteFile(o.jsonFile, func(w io.Writer) error { return trace.SaveTemporal(w, res.Temporal) }); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	if o.svgFile != "" {
		svg := study.Heatmap(res.Temporal, o.render)
		if err := cliutil.WriteFile(o.svgFile, func(w io.Writer) error {
			_, err := io.WriteString(w, svg)
			return err
		}); err != nil {
			return fmt.Errorf("-svg: %w", err)
		}
		fmt.Printf("heatmap written to %s\n", o.svgFile)
	}
	study.WriteRunHeader(os.Stdout, label, res)
	if o.csv {
		emitCSV(res.Temporal, study.KernelSet(o.render.Kernels, res.Temporal), o.render.Metric, o.render.IncludeStack)
		return nil
	}
	study.WriteRunBody(os.Stdout, res, o.render)
	return nil
}

// finish publishes the slowdown gauge (the slowest run's), writes the
// -metrics/-trace/-journal exports and, outside -csv, closes the report
// with the pipeline-stage and block-engine tables.  A no-op without an
// observer.
func (o *options) finish(results []*study.RunResult) error {
	if o.obs == nil {
		return nil
	}
	var slowdown float64
	for _, res := range results {
		if res.Temporal.TotalInstr > 0 {
			slowdown = max(slowdown, float64(res.Time)/float64(res.Temporal.TotalInstr))
		}
	}
	o.obs.Metrics.Gauge("tquad_run_slowdown").Set(slowdown)
	if err := o.obs.WriteFiles(o.metricsOut, o.traceOut, o.journalOut); err != nil {
		return err
	}
	if o.csv {
		return nil
	}
	fmt.Println()
	fmt.Print("pipeline stages:\n" + study.RenderSpans(o.obs.Spans))
	if blocks := study.RenderBlockEngine(o.obs.Metrics); blocks != "" {
		fmt.Println()
		fmt.Print("block execution engine:\n" + blocks)
	}
	return nil
}

// parseSlices parses the -slice flag: a comma-separated list of
// non-negative interval values.  Empty elements (from "1,,2", a leading
// or trailing comma, or an empty flag) are rejected rather than silently
// dropped, and duplicate intervals collapse to the first occurrence so a
// sweep never runs — or prints — the same configuration twice.
func parseSlices(s string) ([]uint64, error) {
	return cliutil.ParseList("-slice", s, ",",
		func(part string) (uint64, error) {
			iv, err := strconv.ParseUint(part, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("not a non-negative integer")
			}
			return iv, nil
		},
		func(iv uint64) string { return strconv.FormatUint(iv, 10) })
}

// parseCaches parses the -cache flag into canonical hierarchy keys: a
// semicolon-separated list of hierarchy descriptions (levels within one
// hierarchy are comma-separated, so the list separator must differ).
// Hierarchies that canonicalise to the same geometry collapse to one
// run.  An empty flag leaves the simulator detached.
func parseCaches(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	return cliutil.ParseList("-cache", s, ";",
		func(part string) (string, error) {
			c, err := memsim.ParseConfig(part)
			if err != nil {
				return "", err
			}
			return c.Key(), nil
		},
		func(key string) string { return key })
}

func emitCSV(prof *core.Profile, names []string, metric string, includeStack bool) {
	header := append([]string{"slice"}, names...)
	rows := make([][]float64, prof.NumSlices)
	series := make(map[string][]uint64, len(names))
	for _, n := range names {
		if k, ok := prof.Kernel(n); ok {
			series[n] = k.Series(prof.NumSlices, metric != "writes", includeStack)
		} else {
			series[n] = make([]uint64, prof.NumSlices)
		}
	}
	for s := uint64(0); s < prof.NumSlices; s++ {
		row := []float64{float64(s)}
		for _, n := range names {
			row = append(row, float64(series[n][s]))
		}
		rows[s] = row
	}
	os.Stdout.WriteString(report.CSV(header, rows))
}
