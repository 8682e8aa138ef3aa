package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"tquad/internal/study"
	"tquad/internal/trace"
)

// layerMetrics gathers the per-layer metrics of a traced run: the
// ladder's per-instruction prices, the set-up parts, the scheduler and
// job figures (from this workload's traced ops when it drives that
// layer, otherwise from the ladder's own sweep op and job), and the
// tracing overhead and span coverage of the traced ops.
func (m *measurement) layerMetrics(b *bench) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	units := map[string]string{
		"vm.block_hit_ratio": "ratio", "vm.fast_run_ratio": "ratio",
		"pin.analysis_calls": "count", "pin.folded_calls": "count",
		"core.snapshot_s": "s", "quad.report_s": "s",
		"memsim.accesses": "count", "memsim.ns_per_access": "ns/access",
		"etrace.trace_bytes_per_instr": "B/instr",
	}
	for name, v := range m.lad.values {
		unit := units[name]
		switch {
		case unit != "":
		case strings.Contains(name, "replay_over_live"):
			unit = "ratio"
		default:
			unit = "ns/instr"
		}
		put(name, v, unit)
	}
	put("wfs.build_s", median(b.buildS), "s")
	put("study.calibrate_s", median(b.calibrateS), "s")

	scheds := []*schedOut{m.lad.sweep}
	if b.name == paperTables || b.name == sweepReplay {
		scheds = nil
		for _, r := range m.tops {
			if r.sched.jobs == schedJobs {
				scheds = append(scheds, r.sched)
			}
		}
	}
	var wait, busy, crit, eff, render, execs, passes []float64
	for _, s := range scheds {
		w, bz, c := foldRuns(s.runs)
		wait, busy, crit = append(wait, w), append(busy, bz), append(crit, c)
		eff = append(eff, parallelEff(bz, s.flushS, s.jobs))
		render = append(render, s.renderS)
		execs, passes = append(execs, float64(s.guestExecs)), append(passes, float64(s.decodePasses))
	}
	put("study.run_wait_s", median(wait), "s")
	put("study.run_busy_s", median(busy), "s")
	put("study.critical_path_s", median(crit), "s")
	put("study.parallel_eff", median(eff), "ratio")
	put("study.render_s", median(render), "s")
	put("study.guest_execs", median(execs), "count")
	put("study.decode_passes", median(passes), "count")

	jobs := []*jobStats{m.lad.job}
	open := []float64{m.lad.jobOpen}
	if b.name == serviceJobs {
		jobs, open = nil, b.openS
		for _, r := range m.tops {
			jobs = append(jobs, r.job)
		}
	}
	var submit, qwait, runS, fetch, art, journal []float64
	for _, j := range jobs {
		submit, qwait = append(submit, j.submitS), append(qwait, j.queueWaitS)
		runS, fetch = append(runS, j.runS), append(fetch, j.fetchS)
		art, journal = append(art, float64(j.artifactBytes)/(1<<20)), append(journal, float64(j.journalBytes))
	}
	put("jobd.open_s", median(open), "s")
	put("jobd.submit_s", median(submit), "s")
	put("jobd.queue_wait_s", median(qwait), "s")
	put("jobd.run_s", median(runS), "s")
	put("jobd.fetch_s", median(fetch), "s")
	put("jobd.artifact_mb", median(art), "MB")
	put("jobd.journal_bytes_per_job", median(journal), "B")

	overhead := median(m.traced)/median(m.walls) - 1
	put("bench.trace_overhead", overhead, "ratio")
	byName, wall, unattributed := m.tr.layerSelf(m.tracedOps)
	var sw, su float64
	for i := range wall {
		sw += wall[i]
		su += unattributed[i]
	}
	coverage := 0.0
	if sw > 0 {
		coverage = 1 - su/sw
	}
	put("bench.span_coverage", coverage, "ratio")

	fmt.Printf("tracing overhead: traced op_s_p50 %.4f s (%d ops) vs untraced %.4f s (%d ops): %+.1f%%\n",
		median(m.traced), len(m.traced), median(m.walls), len(m.walls), 100*overhead)
	fmt.Printf("layer self time per traced op (layer spans cover %.1f%% of op wall)\n", 100*coverage)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	n := float64(len(wall))
	for _, name := range names {
		fmt.Printf("  %-20s %10.4f s  %5.1f%%\n", name, byName[name]/n, 100*byName[name]/sw)
	}
	fmt.Printf("  %-20s %10.4f s  %5.1f%%\n", "(op self)", su/n, 100*su/sw)
	return out
}

// criticalPath answers whether the QUAD-incl consumer is paper_tables'
// critical path.  The op is one recording, then one batched replay pass
// whose five consumers apply the decoded stream concurrently, so the
// pass can end no sooner than its slowest consumer (QUAD incl replayed
// alone) and no sooner than all consumers' apply work spread over the
// cores.  QUAD incl is the critical path when the first bound is the
// larger.  The instrumented-flat consumer is priced as QUAD excl plus
// flatprof, the phase profile as core; both from the ladder.
func criticalPath(s *schedOut, l *ladder) string {
	var rec, pass float64
	for _, sl := range slots(s.runs) {
		if sl.record {
			rec += sl.seconds()
		} else if sl.seconds() > pass {
			pass = sl.seconds()
		}
	}
	apply := func(tool string) float64 { return max(l.replay[tool]-l.decodeS, 0) }
	work := l.decodeS + 2*apply("flatprof") + 2*apply("quad_excl") + apply("quad_incl") + apply("core")
	procs := runtime.GOMAXPROCS(0)
	spread := work / float64(procs)
	alone := l.replay["quad_incl"]
	verdict := "is not"
	if alone >= spread {
		verdict = "is"
	}
	return fmt.Sprintf("paper_tables jobs=%d: record %.2f s + replay pass %.2f s (flush %.2f s). "+
		"Pass bounds: QUAD incl alone %.2f s, all consumers' work on %d cores %.2f s: QUAD incl %s the critical path",
		s.jobs, rec, pass, s.flushS, alone, procs, spread, verdict)
}

// checkReplayMatchesLive re-runs a replayed sweep's configurations live
// and requires each replayed profile (and hierarchy) to be
// byte-identical to the live one.
func (b *bench) checkReplayMatchesLive(s *schedOut) error {
	sch := study.NewScheduler(b.s, schedJobs)
	defer sch.Close()
	sch.SetContext(b.ctx)
	sch.SetReplay(false)
	pend := make([]*study.Pending, len(s.results))
	for i, r := range s.results {
		pend[i] = sch.Submit(r.Config)
	}
	if errs := sch.Flush(); len(errs) > 0 {
		return errors.Join(errs...)
	}
	for i, p := range pend {
		live, err := p.Wait()
		if err != nil {
			return err
		}
		want, got := profileBytes(live), profileBytes(s.results[i])
		if !bytes.Equal(want, got) {
			return fmt.Errorf("run %s: replayed profile differs from live (%d vs %d bytes)", live.Key, len(got), len(want))
		}
	}
	return nil
}

// profileBytes is a run's temporal profile and simulated hierarchy in
// canonical byte form.
func profileBytes(r *study.RunResult) []byte {
	var buf bytes.Buffer
	trace.SaveTemporal(&buf, r.Temporal)
	if r.Mem != nil {
		buf.WriteString(r.Mem.String())
	}
	return buf.Bytes()
}
