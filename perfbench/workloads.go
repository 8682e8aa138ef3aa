package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tquad/internal/core"
	"tquad/internal/dsp"
	"tquad/internal/gos"
	"tquad/internal/memsim"
	"tquad/internal/pin"
	"tquad/internal/study"
	"tquad/internal/vm"
	"tquad/internal/wav"
	"tquad/internal/wfs"
)

// Workload names, in BENCHMARK.json order.
const (
	profileLive = "profile_live"
	paperTables = "paper_tables"
	sweepReplay = "sweep_replay"
	serviceJobs = "service_jobs"
)

var workloadNames = []string{profileLive, paperTables, sweepReplay, serviceJobs}

// schedJobs is the scheduler concurrency every scheduler-driven op uses
// (and jobd's SchedJobs): the paper_tables and sweep_replay definitions.
const schedJobs = 2

// sweepCaches are sweep_replay's memory hierarchies in paper order: none,
// two levels, and the same plus a last-level cache.
var sweepCaches = []string{"", "l1=32k/8/64,l2=256k/8/64", "l1=32k/8/64,l2=256k/8/64,llc=2m/16/64"}

// goldenSweep is the committed cmd/tquad output for service_jobs' spec at
// the default seed.
const goldenSweep = "cmd/tquad/testdata/golden_small_sweep.txt"

// params are the inputs a seed chooses.  Seed 0 is the paper grid
// exactly; any other seed scales each slice interval independently by a
// factor in [0.75, 1.25] and shuffles the cache-geometry order.  The
// guest program and its input never change: only the profiler
// configuration does.
type params struct {
	liveSlices  float64    // profile_live: slice count (cmd/tquad's ~64)
	tablesSlice uint64     // paper_tables: Table IV slice interval (5000)
	sweepSlices [2]float64 // sweep_replay: slice counts (Figure 6's 64, Figure 7's 256)
	caches      []string   // sweep_replay: geometry order
	jobSlices   [2]uint64  // service_jobs: intervals (200000, 400000)
}

func newParams(seed int64) params {
	scale := [5]float64{1, 1, 1, 1, 1}
	caches := make([]string, len(sweepCaches))
	for i, c := range sweepCaches {
		caches[i] = canonCache(c)
	}
	if seed != 0 {
		r := rand.New(rand.NewSource(seed))
		for i := range scale {
			scale[i] = 0.75 + 0.5*r.Float64()
		}
		r.Shuffle(len(caches), func(i, j int) { caches[i], caches[j] = caches[j], caches[i] })
	}
	return params{
		liveSlices:  64 / scale[0],
		tablesSlice: uint64(5000 * scale[1]),
		sweepSlices: [2]float64{64 / scale[2], 256 / scale[3]},
		caches:      caches,
		jobSlices:   [2]uint64{uint64(200000 * scale[4]), uint64(400000 * scale[4])},
	}
}

// canonCache is a geometry's canonical key, the form the scheduler
// memoises on ("" stays "": no simulator).
func canonCache(c string) string {
	if c == "" {
		return ""
	}
	mc, err := memsim.ParseConfig(c)
	if err != nil {
		panic(fmt.Sprintf("perfbench: built-in cache %q: %v", c, err))
	}
	return mc.Key()
}

// interval converts a slice count into an interval over n instructions.
func interval(n uint64, slices float64) uint64 {
	iv := uint64(float64(n) / slices)
	if iv == 0 {
		iv = 1
	}
	return iv
}

// bench is one workload's state across its set-ups and ops.
type bench struct {
	name string
	cfg  wfs.Config
	p    params
	seed int64
	root string // repository root (holds the golden files)
	work string // scratch directory for op outputs and data dirs
	ctx  context.Context

	s      *study.Study
	native uint64
	svc    *service
	nsetup int

	input      []byte  // the guest's encoded input file
	want       []int16 // host reference output audio
	wantReport []byte  // service_jobs: expected report.txt
	guests     guestLog
	traceBytes atomic.Int64 // bytes recorded through the scheduler's trace writer
	first      map[string][]byte

	// set-up parts, one sample per set-up
	buildS, calibrateS, openS []float64
}

func newBench(ctx context.Context, name string, cfg wfs.Config, seed int64, root, work string) *bench {
	return &bench{name: name, cfg: cfg, p: newParams(seed), seed: seed, root: root, work: work,
		ctx: ctx, first: make(map[string][]byte)}
}

// setup builds the guest and calibrates it natively (and for
// service_jobs opens a daemon and binds its HTTP server), returning the
// wall seconds.  Each call replaces the previous set-up.
func (b *bench) setup() (float64, error) {
	t0 := time.Now()
	s, err := study.New(b.cfg)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	native, err := s.NativeICount()
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	var svc *service
	if b.name == serviceJobs {
		b.nsetup++
		svc, err = startService(filepath.Join(b.work, fmt.Sprintf("jobd-%d", b.nsetup)), b.hooks())
		if err != nil {
			return 0, err
		}
		b.openS = append(b.openS, svc.openS)
	}
	d := time.Since(t0).Seconds()
	b.buildS = append(b.buildS, t1.Sub(t0).Seconds())
	b.calibrateS = append(b.calibrateS, t2.Sub(t1).Seconds())
	if b.svc != nil {
		b.svc.close()
	}
	b.s, b.native, b.svc = s, native, svc
	return d, nil
}

// prepareChecks computes the references the output checks compare
// against.  It runs once, after the set-ups and outside their timing.
func (b *bench) prepareChecks() error {
	b.input = wav.Encode(b.s.W.Input)
	b.want = dsp.Reference(b.cfg, b.s.W.Input.Samples)
	if b.name != serviceJobs {
		return nil
	}
	if b.seed == 0 {
		g, err := os.ReadFile(filepath.Join(b.root, goldenSweep))
		if err != nil {
			return err
		}
		b.wantReport = g
		return nil
	}
	// Other seeds: the same sweep through the scheduler in process.
	out, err := runSched(b.ctx, b.s, schedJobs, b.jobConfigs(), study.Hooks{}, nil, nil, -1, -1,
		sweepReport(b.p.jobSlices[:], false), "")
	if err != nil {
		return fmt.Errorf("service reference: %w", err)
	}
	b.wantReport = out.text
	return nil
}

// jobRender is the report shape of a job spec that sets no render field.
var jobRender = study.RenderOptions{Metric: "reads", Kernels: "top", Width: 64, IncludeStack: true}

func (b *bench) jobConfigs() []study.RunConfig {
	var cfgs []study.RunConfig
	for _, iv := range b.p.jobSlices {
		cfgs = append(cfgs, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: true})
	}
	return cfgs
}

func (b *bench) close() {
	if b.svc != nil {
		b.svc.close()
		b.svc = nil
	}
}

// hooks are the scheduler seams the benchmark uses: every guest machine
// gets an OS personality the benchmark keeps (the same file set
// wfs.Workload.NewMachine installs), so its output audio can be checked,
// and the recorded trace's bytes are counted on their way to disk.
func (b *bench) hooks() study.Hooks {
	return study.Hooks{
		Machine: func(_ context.Context, m *vm.Machine) {
			osys := gos.New()
			osys.AddFile(b.cfg.InputFile, b.input)
			m.SetSyscallHandler(osys)
			b.guests.add(m, osys)
		},
		RecordWriter: func(w io.Writer) io.Writer { return countWriter{w, &b.traceBytes} },
	}
}

// guestLog collects the guest executions the scheduler ran.
type guestLog struct {
	mu   sync.Mutex
	runs []guestRun
}

type guestRun struct {
	m  *vm.Machine
	os *gos.OS
}

func (g *guestLog) add(m *vm.Machine, osys *gos.OS) {
	g.mu.Lock()
	g.runs = append(g.runs, guestRun{m, osys})
	g.mu.Unlock()
}

func (g *guestLog) take() []guestRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.runs
	g.runs = nil
	return r
}

// checkGuests requires exactly want guest executions, each passing
// checkGuest.
func (b *bench) checkGuests(want int) error {
	runs := b.guests.take()
	if len(runs) != want {
		return fmt.Errorf("%d guest executions, want %d", len(runs), want)
	}
	for _, r := range runs {
		if err := b.checkGuest(r.m, r.os); err != nil {
			return err
		}
	}
	return nil
}

// checkGuest is wfsrun -verify plus the calibration check: exit code 0,
// the native instruction count, and output audio bit-identical to the
// host reference.
func (b *bench) checkGuest(m *vm.Machine, osys *gos.OS) error {
	if m.ExitCode != 0 {
		return fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	if m.ICount != b.native {
		return fmt.Errorf("guest ran %d instructions, native %d", m.ICount, b.native)
	}
	out, err := b.s.W.Output(osys)
	if err != nil {
		return err
	}
	if len(out.Samples) != len(b.want) {
		return fmt.Errorf("output has %d samples, reference %d", len(out.Samples), len(b.want))
	}
	for i, v := range b.want {
		if out.Samples[i] != v {
			return fmt.Errorf("output sample %d = %d, reference %d", i, out.Samples[i], v)
		}
	}
	return nil
}

// sameAsFirst requires every op of a run to produce the output its first
// op did (same seed, same configuration: the output is deterministic).
func (b *bench) sameAsFirst(what string, got []byte) error {
	ref, ok := b.first[what]
	if !ok {
		b.first[what] = append([]byte(nil), got...)
		return nil
	}
	if !bytes.Equal(ref, got) {
		return fmt.Errorf("%s differs from the first op's (%d vs %d bytes)", what, len(got), len(ref))
	}
	return nil
}

// warmUp runs one checked op before the measured window and outside it,
// so lazily initialised state (package tables, pools, the client's HTTP
// connection) is in place before the first timed op.  Every op starts
// from a heap returned to the OS, so nothing a full-size op fills would
// survive into the next; the study-sized workloads therefore warm up on
// the small guest, which runs the same code paths at a fraction of the
// cost.  service_jobs already runs the small guest and warms up on its
// own daemon.
func (b *bench) warmUp() (opResult, error) {
	if b.name == serviceJobs {
		return b.op(nil, -1)
	}
	w := newBench(b.ctx, b.name, wfs.Small(), b.seed, b.root, b.work)
	defer w.close()
	if _, err := w.setup(); err != nil {
		return opResult{}, err
	}
	if err := w.prepareChecks(); err != nil {
		return opResult{}, err
	}
	return w.op(nil, -1)
}

// opResult is what one op measured.
type opResult struct {
	wall  float64 // seconds
	instr uint64  // guest instructions covered, summed over the op's configurations
	disk  int64   // bytes the op added to disk
	sched *schedOut
	job   *jobStats
}

// op runs one op of the bench's workload.  t is nil for an untraced op.
func (b *bench) op(t *tracer, id int) (opResult, error) {
	switch b.name {
	case profileLive:
		return b.opLive(t, id)
	case paperTables:
		return b.opTables(t, id, schedJobs)
	case sweepReplay:
		return b.opSweep(t, id)
	case serviceJobs:
		return b.opService(t, id)
	}
	return opResult{}, fmt.Errorf("unknown workload %q", b.name)
}

// opLive is one live tQUAD profile the way cmd/tquad runs a single
// interval: engine, tool, supervised run, snapshot, rendered report.
func (b *bench) opLive(t *tracer, id int) (opResult, error) {
	root := t.begin("op", -1, id)
	start := time.Now()
	sp := t.begin("wfs.new_machine", root, id)
	m, osys := b.s.W.NewMachine()
	t.end(sp)
	sp = t.begin("pin.new_engine", root, id)
	e := pin.NewEngine(m)
	t.end(sp)
	sp = t.begin("core.attach", root, id)
	tool := core.Attach(e, core.Options{SliceInterval: interval(b.native, b.p.liveSlices), IncludeStack: true})
	t.end(sp)
	sp = t.begin("vm.run", root, id)
	err := m.RunContext(b.ctx, wfs.MaxInstr)
	t.end(sp)
	if err != nil {
		t.end(root)
		return opResult{}, err
	}
	sp = t.begin("core.snapshot", root, id)
	prof := tool.Snapshot()
	t.end(sp)
	sp = t.begin("study.render", root, id)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "tQUAD: %d instructions, %d slices of %d instructions, slowdown %.1fx\n\n",
		prof.TotalInstr, prof.NumSlices, prof.SliceInterval, float64(m.Time())/float64(prof.TotalInstr))
	names := study.KernelSet(jobRender.Kernels, prof)
	study.WriteCharts(&buf, prof, names, jobRender)
	io.WriteString(&buf, study.SummaryTable(prof, names, true))
	fmt.Fprintln(&buf)
	io.WriteString(&buf, tool.Breakdown().String())
	t.end(sp)
	sp = t.begin("disk.write", root, id)
	err = os.WriteFile(filepath.Join(b.work, fmt.Sprintf("live-%d.txt", id)), buf.Bytes(), 0o644)
	t.end(sp)
	wall := time.Since(start).Seconds()
	t.end(root)
	if err != nil {
		return opResult{}, err
	}
	r := opResult{wall: wall, instr: prof.TotalInstr, disk: int64(buf.Len())}
	if err := b.checkGuest(m, osys); err != nil {
		return r, err
	}
	if prof.TotalInstr != b.native {
		return r, fmt.Errorf("profile covers %d instructions, native %d", prof.TotalInstr, b.native)
	}
	return r, b.sameAsFirst("report", buf.Bytes())
}

// tablesConfigs is the Table I-IV set: flat, QUAD excl, QUAD incl,
// instrumented flat, and tQUAD at the phase interval.
func tablesConfigs(phaseSlice uint64) []study.RunConfig {
	return []study.RunConfig{
		{Kind: study.RunFlat},
		{Kind: study.RunQUAD, IncludeStack: false},
		{Kind: study.RunQUAD, IncludeStack: true},
		{Kind: study.RunInstrFlat},
		{Kind: study.RunTQUAD, SliceInterval: phaseSlice, IncludeStack: true},
	}
}

// renderTables renders the Table I-IV report in jobd's tables.txt layout
// from tablesConfigs' results.
func renderTables(s *study.Study, rs []*study.RunResult) []byte {
	flat, qex, qin, instr, ph := rs[0], rs[1], rs[2], rs[3], rs[4]
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "### Table I — flat profile (gprof analogue)\n\n%s\n", study.RenderTableI(flat.Flat))
	fmt.Fprintf(&buf, "### Table II — QUAD producer/consumer summary\n\n%s\n", study.RenderTableII(qex.Quad, qin.Quad))
	fmt.Fprintf(&buf, "### Table III — flat profile of the QUAD-instrumented run\n\n%s\n", study.RenderTableIII(flat.Flat, instr.Flat))
	phases := s.PhasesFromProfile(ph.Temporal)
	fmt.Fprintf(&buf, "### Table IV — %d phases over %d slices of %d instructions\n\n%s",
		len(phases), ph.Temporal.NumSlices, ph.Temporal.SliceInterval, study.RenderTableIV(phases, ph.Temporal.NumSlices))
	return buf.Bytes()
}

// checkTables checks the paper's exact counts: Table I's fft1d and
// bitrev call counts follow the program structure, and every output
// sample address is written by AudioIo_setFrames exactly once.
func (b *bench) checkTables(rs []*study.RunResult) error {
	fft := uint64(2*b.cfg.Frames + 2)
	for name, want := range map[string]uint64{"fft1d": fft, "bitrev": fft * uint64(b.cfg.FFTSize)} {
		row, ok := rs[0].Flat.Row(name)
		if !ok || row.Calls != want {
			return fmt.Errorf("Table I %s calls = %d, want %d", name, row.Calls, want)
		}
	}
	sf, ok := rs[1].Quad.Kernel("AudioIo_setFrames")
	if want := uint64(b.cfg.TotalOutputSamples() * 8); !ok || sf.OutUnMA != want {
		return fmt.Errorf("Table II setFrames OUT UnMA = %d, want %d", sf.OutUnMA, want)
	}
	return nil
}

func (b *bench) opTables(t *tracer, id, jobs int) (opResult, error) {
	render := func(rs []*study.RunResult) []byte { return renderTables(b.s, rs) }
	return b.schedOp(t, id, jobs, tablesConfigs(b.p.tablesSlice), "tables", render, b.checkTables)
}

// sweepConfigs crosses sweep_replay's two slice intervals with its cache
// geometries, interval-major like cmd/tquad.
func sweepConfigs(native uint64, p params) ([]study.RunConfig, []uint64) {
	ivs := []uint64{interval(native, p.sweepSlices[0]), interval(native, p.sweepSlices[1])}
	var cfgs []study.RunConfig
	for _, iv := range ivs {
		for _, c := range p.caches {
			cfgs = append(cfgs, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: true, Cache: c})
		}
	}
	return cfgs, ivs
}

func (b *bench) opSweep(t *tracer, id int) (opResult, error) {
	cfgs, ivs := sweepConfigs(b.native, b.p)
	return b.schedOp(t, id, schedJobs, cfgs, "sweep report", sweepReport(ivs, true), nil)
}

// sweepReport renders a sweep's results as cmd/tquad prints them.
func sweepReport(ivs []uint64, cacheCmp bool) func([]*study.RunResult) []byte {
	return func(rs []*study.RunResult) []byte {
		var buf bytes.Buffer
		study.WriteSweepReport(&buf, rs, ivs, cacheCmp, jobRender)
		return buf.Bytes()
	}
}

// schedOp runs one scheduler-driven op and checks it: one guest
// execution (verified), one decode pass, every configuration covering
// the native count, and output identical to the run's first op.
func (b *bench) schedOp(t *tracer, id, jobs int, cfgs []study.RunConfig, what string,
	render func([]*study.RunResult) []byte, check func([]*study.RunResult) error) (opResult, error) {
	var ev *eventLog
	if t != nil {
		ev = &eventLog{}
	}
	b.traceBytes.Store(0)
	b.guests.take()
	path := filepath.Join(b.work, fmt.Sprintf("op-%d.txt", id))
	out, err := runSched(b.ctx, b.s, jobs, cfgs, b.hooks(), ev, t, -1, id, render, path)
	if err != nil {
		return opResult{}, err
	}
	r := opResult{wall: out.wall, instr: uint64(len(cfgs)) * b.native, sched: &out}
	r.disk = b.traceBytes.Load() + int64(len(out.text))
	if out.guestExecs != 1 || out.decodePasses != 1 {
		return r, fmt.Errorf("%d guest executions and %d decode passes, want 1 and 1", out.guestExecs, out.decodePasses)
	}
	if err := b.checkGuests(1); err != nil {
		return r, err
	}
	for _, res := range out.results {
		if res.ICount != b.native {
			return r, fmt.Errorf("run %s covers %d instructions, native %d", res.Key, res.ICount, b.native)
		}
	}
	if check != nil {
		if err := check(out.results); err != nil {
			return r, err
		}
	}
	return r, b.sameAsFirst(what, out.text)
}

// schedOut is one scheduler op as the benchmark saw it.
type schedOut struct {
	results                  []*study.RunResult
	text                     []byte
	jobs                     int
	wall, flushS, renderS    float64
	guestExecs, decodePasses uint64
	runs                     []runSpan // traced ops only
}

// runSched submits cfgs to a fresh scheduler, drains it, renders the
// results (writing them to outPath unless it is empty) and closes it —
// the op wfsstudy, cmd/tquad sweeps and jobd jobs share.  With a tracer
// it records the calls and turns the scheduler's events into
// record/replay spans under the flush.
func runSched(ctx context.Context, s *study.Study, jobs int, cfgs []study.RunConfig, hooks study.Hooks,
	ev *eventLog, t *tracer, parent, id int, render func([]*study.RunResult) []byte, outPath string) (schedOut, error) {
	out := schedOut{jobs: jobs}
	root := t.begin("op", parent, id)
	start := time.Now()
	sch := study.NewScheduler(s, jobs)
	sch.SetContext(ctx)
	sch.SetHooks(hooks)
	if ev != nil {
		sch.SetEvents(ev)
	}
	sp := t.begin("study.submit", root, id)
	pend := make([]*study.Pending, len(cfgs))
	for i, c := range cfgs {
		pend[i] = sch.Submit(c)
	}
	t.end(sp)
	flush := t.begin("study.flush", root, id)
	f0 := time.Now()
	errs := sch.Flush()
	out.flushS = time.Since(f0).Seconds()
	t.end(flush)
	if len(errs) > 0 {
		sch.Close()
		t.end(root)
		return out, errors.Join(errs...)
	}
	sp = t.begin("study.render", root, id)
	r0 := time.Now()
	for _, p := range pend {
		res, err := p.Wait()
		if err != nil {
			sch.Close()
			t.end(root)
			return out, err
		}
		out.results = append(out.results, res)
	}
	out.text = render(out.results)
	out.renderS = time.Since(r0).Seconds()
	t.end(sp)
	var werr error
	if outPath != "" {
		sp = t.begin("disk.write", root, id)
		werr = os.WriteFile(outPath, out.text, 0o644)
		t.end(sp)
	}
	out.guestExecs, out.decodePasses = sch.GuestExecutions(), sch.DecodePasses()
	sp = t.begin("study.close", root, id)
	sch.Close()
	t.end(sp)
	out.wall = time.Since(start).Seconds()
	t.end(root)
	if werr != nil {
		return out, werr
	}
	if ev != nil {
		out.runs = ev.runs()
		for _, s := range slots(out.runs) {
			name := "study.replay_pass"
			if s.record {
				name = "study.record"
			}
			t.add(name, flush, id, s.start, s.end)
		}
	}
	return out, nil
}
