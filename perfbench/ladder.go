package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// replayTools are the analysis tools the ladder replays one at a time.
var replayTools = []string{"flatprof", "core", "quad_incl", "quad_excl", "memsim"}

// ladderCache is the hierarchy the ladder's memsim rung simulates.
const ladderCache = "l1=32k/8/64,l2=256k/8/64,llc=2m/16/64"

// ladder prices each layer against native execution of the study
// configuration, in this process: native vm, the pin engine with no
// tools, each tool alone, etrace record to file, decode-only at one and
// two workers, decode+apply per tool, one sweep_replay op and one
// service_jobs job.
type ladder struct {
	steps   []ladderStep
	native  uint64
	values  map[string]float64 // per-layer metrics measured on the ladder
	live    map[string]float64 // s per live run, by tool
	replay  map[string]float64 // s per replay, by tool
	decodeS float64            // s per decode-only pass at the scheduler's decode parallelism
	sweep   *schedOut
	job     *jobStats
	jobOpen float64
}

// step times fn reps times (the median counts), where fn runs the study
// workload once and returns how many guest instructions it covered, and
// records ns per instruction.
func (l *ladder) step(t *tracer, parent int, name, base string, reps int, fn func() (uint64, error)) (float64, error) {
	var ds []float64
	var n uint64
	for i := 0; i < reps; i++ {
		runtime.GC()
		sp := t.begin("ladder."+name, parent, -2)
		t0 := time.Now()
		var err error
		n, err = fn()
		ds = append(ds, time.Since(t0).Seconds())
		t.end(sp)
		if err != nil {
			return 0, fmt.Errorf("ladder %s: %w", name, err)
		}
		if n == 0 {
			return 0, fmt.Errorf("ladder %s: no guest instructions", name)
		}
	}
	d := median(ds)
	l.steps = append(l.steps, ladderStep{Name: name, Base: base, NsPerInstr: d * 1e9 / float64(n)})
	return d, nil
}

// baseReps is how many times the native, pin and decode-only rungs run:
// every other price is measured from them, and a single sub-second pass
// is too noisy for that.
const baseReps = 3

// runGuest runs m to completion and checks it ran the native count.
func runGuest(ctx context.Context, m *vm.Machine, native uint64) (uint64, error) {
	if err := m.RunContext(ctx, wfs.MaxInstr); err != nil {
		return 0, err
	}
	if m.ExitCode != 0 {
		return 0, fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	if native != 0 && m.ICount != native {
		return 0, fmt.Errorf("guest ran %d instructions, native %d", m.ICount, native)
	}
	return m.ICount, nil
}

// finisher finishes an attached tool (report or snapshot) and returns a
// canonical byte form of its result, plus the accesses it simulated
// (memsim only).
type finisher func() (result []byte, accesses uint64)

// attachTool attaches one named tool to h.
func attachTool(h pin.Host, tool string, iv uint64) (finisher, error) {
	switch tool {
	case "flatprof":
		p := flatprof.Attach(h, flatprof.Options{})
		return func() ([]byte, uint64) { return []byte(study.RenderTableI(p.Report())), 0 }, nil
	case "core":
		c := core.Attach(h, core.Options{SliceInterval: iv, IncludeStack: true})
		return func() ([]byte, uint64) {
			var buf bytes.Buffer
			trace.SaveTemporal(&buf, c.Snapshot())
			return buf.Bytes(), 0
		}, nil
	case "quad_incl", "quad_excl":
		q := quad.Attach(h, quad.Options{IncludeStack: tool == "quad_incl"})
		return func() ([]byte, uint64) { r := q.Report(); return []byte(study.RenderTableII(r, r)), 0 }, nil
	case "memsim":
		mc, err := memsim.ParseConfig(ladderCache)
		if err != nil {
			return nil, err
		}
		ms, err := memsim.Attach(h, memsim.Options{Config: mc, SliceInterval: iv})
		if err != nil {
			return nil, err
		}
		return func() ([]byte, uint64) { p := ms.Snapshot(); return []byte(p.String()), p.Accesses }, nil
	}
	return nil, fmt.Errorf("unknown tool %q", tool)
}

// runLadder climbs the ladder on the cfg guest (the benchmark uses
// study).  p picks the sweep's intervals and cache order; work holds the
// recorded trace and the ladder's daemon.
func runLadder(ctx context.Context, t *tracer, cfg wfs.Config, p params, work string) (*ladder, error) {
	l := &ladder{values: map[string]float64{}, live: map[string]float64{}, replay: map[string]float64{}}
	root := t.begin("ladder", -1, -2)
	defer t.end(root)
	s, err := study.New(cfg)
	if err != nil {
		return nil, err
	}
	native, err := s.NativeICount()
	if err != nil {
		return nil, err
	}
	l.native = native
	iv := interval(native, 64)

	var bs vm.BlockStats
	if _, err := l.step(t, root, "native", "", baseReps, func() (uint64, error) {
		m, _ := s.W.NewMachine()
		n, err := runGuest(ctx, m, native)
		bs = m.BlockStats
		return n, err
	}); err != nil {
		return nil, err
	}
	l.values["vm.block_hit_ratio"] = float64(bs.Entries-bs.Compiled) / float64(max(bs.Entries, 1))
	l.values["vm.fast_run_ratio"] = float64(bs.FastRuns) / float64(max(bs.Entries, 1))
	if _, err := l.step(t, root, "pin", "native", baseReps, func() (uint64, error) {
		m, _ := s.W.NewMachine()
		pin.NewEngine(m)
		return runGuest(ctx, m, native)
	}); err != nil {
		return nil, err
	}

	// Each tool alone on the live engine; its finishing call (report or
	// snapshot) is timed apart from the run.
	results := map[string][]byte{}
	for _, tool := range replayTools {
		var finish finisher
		var stats pin.Stats
		d, err := l.step(t, root, "+"+tool, "pin", 1, func() (uint64, error) {
			m, _ := s.W.NewMachine()
			e := pin.NewEngine(m)
			var err error
			if finish, err = attachTool(e, tool, iv); err != nil {
				return 0, err
			}
			n, err := runGuest(ctx, m, native)
			stats = e.Stats
			return n, err
		})
		if err != nil {
			return nil, err
		}
		l.live[tool] = d
		f0 := time.Now()
		var accesses uint64
		results[tool], accesses = finish()
		fin := time.Since(f0).Seconds()
		switch tool {
		case "core":
			l.values["core.snapshot_s"] = fin
			l.values["pin.analysis_calls"] = float64(stats.AnalysisCalls)
			l.values["pin.folded_calls"] = float64(stats.FoldedCalls)
		case "quad_incl":
			l.values["quad.report_s"] = fin
		case "memsim":
			l.values["memsim.accesses"] = float64(accesses)
		}
	}

	// etrace: record to a file (flush and fsync included), then decode it.
	tracePath := filepath.Join(work, "ladder.etrace")
	defer os.Remove(tracePath)
	if _, err := l.step(t, root, "record", "pin", 1, func() (uint64, error) {
		m, _ := s.W.NewMachine()
		e := pin.NewEngine(m)
		f, err := os.Create(tracePath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<16)
		rec, err := etrace.Record(e, bw, etrace.RecordOptions{Workload: "wfs study"})
		if err != nil {
			return 0, err
		}
		n, err := runGuest(ctx, m, native)
		if err == nil {
			err = rec.Finish()
		}
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return n, err
	}); err != nil {
		return nil, err
	}
	l.values["etrace.trace_bytes_per_instr"] = float64(fileSize(tracePath)) / float64(native)

	replay := func(jobs int, tool string) (uint64, []byte, error) {
		f, err := os.Open(tracePath)
		if err != nil {
			return 0, nil, err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return 0, nil, err
		}
		pr, err := etrace.NewParallelReplayer(f, info.Size(), etrace.ParallelOptions{Jobs: jobs})
		if err != nil {
			return 0, nil, err
		}
		c := pr.NewConsumer()
		var finish finisher
		if tool != "" {
			if finish, err = attachTool(c, tool, iv); err != nil {
				return 0, nil, err
			}
		}
		if err := pr.ReplayContext(ctx); err != nil {
			return 0, nil, err
		}
		if c.ICount() != native {
			return 0, nil, fmt.Errorf("replayed %d instructions, native %d", c.ICount(), native)
		}
		if finish == nil {
			return c.ICount(), nil, nil
		}
		res, _ := finish()
		return c.ICount(), res, nil
	}
	decodeJobs := min(runtime.GOMAXPROCS(0), 2)
	for _, j := range []int{1, 2} {
		d, err := l.step(t, root, fmt.Sprintf("decode_j%d", j), "", baseReps, func() (uint64, error) {
			n, _, err := replay(j, "")
			return n, err
		})
		if err != nil {
			return nil, err
		}
		if j == decodeJobs {
			l.decodeS = d
		}
	}
	// Decode+apply uses the scheduler's default decode parallelism
	// (GOMAXPROCS workers), so its base is the matching decode rung.
	decodeBase := fmt.Sprintf("decode_j%d", decodeJobs)
	for _, tool := range replayTools {
		var got []byte
		d, err := l.step(t, root, "replay_"+tool, decodeBase, 1, func() (uint64, error) {
			n, b, err := replay(0, tool)
			got = b
			return n, err
		})
		if err != nil {
			return nil, err
		}
		l.replay[tool] = d
		if !bytes.Equal(got, results[tool]) {
			return nil, fmt.Errorf("ladder: %s replayed result differs from its live run", tool)
		}
	}

	// One sweep_replay op through the scheduler, with its events.
	runtime.GC()
	cfgs, ivs := sweepConfigs(native, p)
	sp := t.begin("ladder.sweep", root, -2)
	sw, err := runSched(ctx, s, schedJobs, cfgs, study.Hooks{}, &eventLog{}, t, sp, -2, sweepReport(ivs, true), "")
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("ladder sweep: %w", err)
	}
	if sw.guestExecs != 1 || sw.decodePasses != 1 {
		return nil, fmt.Errorf("ladder sweep: %d guest executions and %d decode passes, want 1 and 1", sw.guestExecs, sw.decodePasses)
	}
	l.sweep = &sw
	l.steps = append(l.steps, ladderStep{Name: "sweep", Base: "", NsPerInstr: sw.wall * 1e9 / float64(uint64(len(cfgs))*native)})

	// One service_jobs job, submit to artifact, on a fresh daemon.
	runtime.GC()
	small, err := study.New(wfs.Small())
	if err != nil {
		return nil, err
	}
	smallNative, err := small.NativeICount()
	if err != nil {
		return nil, err
	}
	sv, err := startService(filepath.Join(work, "ladder-jobd"), study.Hooks{})
	if err != nil {
		return nil, err
	}
	defer sv.close()
	l.jobOpen = sv.openS
	spec := jobSpec(p)
	sp = t.begin("ladder.service", root, -2)
	o, err := jobOp(sv, spec, t, sp, -3)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("ladder service: %w", err)
	}
	if o.job.GuestExecutions != 1 {
		return nil, fmt.Errorf("ladder service: job ran %d guest executions", o.job.GuestExecutions)
	}
	l.job = &o.st
	covered := uint64(len(spec.Slices)+len(tablesConfigs(0))) * smallNative
	l.steps = append(l.steps, ladderStep{Name: "service(small)", Base: "", NsPerInstr: o.wall * 1e9 / float64(covered)})

	incr, _ := ladderIncrements(l.steps)
	l.values["vm.ns_per_instr"] = incr["native"]
	l.values["pin.ns_per_instr"] = incr["pin"]
	l.values["flatprof.ns_per_instr"] = incr["+flatprof"]
	l.values["core.ns_per_instr"] = incr["+core"]
	l.values["quad.ns_per_instr.incl"] = incr["+quad_incl"]
	l.values["quad.ns_per_instr.excl"] = incr["+quad_excl"]
	l.values["etrace.record_ns_per_instr"] = incr["record"]
	l.values["etrace.decode_ns_per_instr.j1"] = incr["decode_j1"]
	l.values["etrace.decode_ns_per_instr.j2"] = incr["decode_j2"]
	l.values["memsim.ns_per_access"] = incr["+memsim"] * float64(native) / max(l.values["memsim.accesses"], 1)
	for _, tool := range replayTools {
		l.values["etrace.apply_ns_per_instr."+tool] = incr["replay_"+tool]
		l.values["etrace.replay_over_live."+tool] = l.replay[tool] / l.live[tool]
	}
	return l, nil
}

// format renders the ladder as a table: ns per guest instruction, the
// ratio to native, and the layer each rung adds over its base.
func (l *ladder) format() string {
	incr, ratio := ladderIncrements(l.steps)
	var b strings.Builder
	fmt.Fprintf(&b, "layer ladder (%d guest instructions per rung; the service rung runs the small guest)\n", l.native)
	fmt.Fprintf(&b, "  %-16s %12s %9s %14s  %s\n", "rung", "ns/instr", "x native", "layer ns/instr", "over")
	for _, s := range l.steps {
		over := s.Base
		if over == "" {
			over = "-"
		}
		fmt.Fprintf(&b, "  %-16s %12.2f %9.2f %14.2f  %s\n", s.Name, s.NsPerInstr, ratio[s.Name], incr[s.Name], over)
	}
	return b.String()
}
