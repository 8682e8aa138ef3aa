// The paper's evaluation as run sets every front end submits the same
// way: the slice×cache grid of tQUAD runs (cmd/tquad's -slice/-cache
// flags, a jobd job's slices/caches) and the Table I–IV set (wfsstudy's
// tables, a jobd job's tables.txt).  Defining both here keeps the
// interval sizing, the cross-product order and the table runs in one
// place, so a cmd/tquad sweep and a jobd job over the same knobs run —
// and render — the same configurations.
package study

import (
	"fmt"
	"io"
)

// gridSlices is how many slices a requested interval of 0 asks for: the
// resolution of the paper's Figure 6.
const gridSlices = 64

// sliceInterval divides a run of icount instructions into roughly slices
// slices, never returning a zero interval.
func sliceInterval(icount, slices uint64) uint64 {
	if iv := icount / slices; iv > 0 {
		return iv
	}
	return 1
}

// ResolveSlices returns intervals with every 0 replaced by the interval
// that cuts the guest's run into about 64 slices.  icount supplies the
// guest's instruction total; it is called once, and only when some
// interval is 0.
func ResolveSlices(intervals []uint64, icount func() (uint64, error)) ([]uint64, error) {
	out := make([]uint64, len(intervals))
	var auto uint64
	for i, iv := range intervals {
		if iv == 0 {
			if auto == 0 {
				ic, err := icount()
				if err != nil {
					return nil, err
				}
				auto = sliceInterval(ic, gridSlices)
			}
			iv = auto
		}
		out[i] = iv
	}
	return out, nil
}

// GridConfigs crosses resolved slice intervals with cache hierarchies
// (canonical memsim keys; none leaves the simulator detached) into
// tQUAD run configurations, interval-major and cache-minor — the order
// every sweep report prints them in.
func GridConfigs(intervals []uint64, caches []string, includeStack, excludeLibs bool) []RunConfig {
	if len(caches) == 0 {
		caches = []string{""}
	}
	cfgs := make([]RunConfig, 0, len(intervals)*len(caches))
	for _, iv := range intervals {
		for _, c := range caches {
			cfgs = append(cfgs, RunConfig{
				Kind:          RunTQUAD,
				SliceInterval: iv,
				IncludeStack:  includeStack,
				ExcludeLibs:   excludeLibs,
				Cache:         c,
			})
		}
	}
	return cfgs
}

// Grid is a submitted slice×cache sweep of tQUAD runs.
type Grid struct {
	// Intervals are the resolved slice intervals, in sweep order.
	Intervals []uint64
	cacheCmp  bool
	pend      []*Pending
}

// SubmitGrid resolves the slice intervals (0 sizes for ~64 slices off
// the native instruction count, itself a memoised run) and submits one
// tQUAD run per interval×hierarchy combination.
func (sc *Scheduler) SubmitGrid(slices []uint64, caches []string, includeStack, excludeLibs bool) (*Grid, error) {
	intervals, err := ResolveSlices(slices, sc.NativeICount)
	if err != nil {
		return nil, err
	}
	g := &Grid{Intervals: intervals, cacheCmp: len(caches) > 1}
	for _, cfg := range GridConfigs(intervals, caches, includeStack, excludeLibs) {
		g.pend = append(g.pend, sc.Submit(cfg))
	}
	return g, nil
}

// Len returns the number of runs in the grid.
func (g *Grid) Len() int { return len(g.pend) }

// Results waits for every run and returns them in sweep order.
func (g *Grid) Results() ([]*RunResult, error) {
	results := make([]*RunResult, len(g.pend))
	for i, p := range g.pend {
		res, err := p.Wait()
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// WriteReport writes the grid's sweep report (see WriteSweepReport),
// closing with the geometry comparison when more than one hierarchy was
// swept.
func (g *Grid) WriteReport(w io.Writer, results []*RunResult, opt RenderOptions) {
	WriteSweepReport(w, results, g.Intervals, g.cacheCmp, opt)
}

// PhaseInterval is the fine slice interval Table IV's phase detection
// runs at.
const PhaseInterval = 5000

// tableConfigs is the Table I–IV run set, in submission order.
var tableConfigs = [...]RunConfig{
	{Kind: RunFlat},
	{Kind: RunQUAD, IncludeStack: false},
	{Kind: RunQUAD, IncludeStack: true},
	{Kind: RunInstrFlat},
	{Kind: RunTQUAD, SliceInterval: PhaseInterval, IncludeStack: true},
}

// Tables holds the completed Table I–IV run set.
type Tables struct {
	Flat      *RunResult // Table I, and Table III's baseline
	QUADExcl  *RunResult // Table II, stack excluded
	QUADIncl  *RunResult // Table II, stack included
	InstrFlat *RunResult // Table III's QUAD-instrumented column
	Phases    *RunResult // tQUAD at PhaseInterval, Table IV's input
}

// PendingTables is a submitted Table I–IV run set.
type PendingTables [len(tableConfigs)]*Pending

// SubmitTables submits the Table I–IV run set.  In replay mode it rides
// the sweep's one recorded guest execution.
func (sc *Scheduler) SubmitTables() *PendingTables {
	var pt PendingTables
	for i, cfg := range tableConfigs {
		pt[i] = sc.Submit(cfg)
	}
	return &pt
}

// Wait blocks until the whole run set completes.
func (pt *PendingTables) Wait() (*Tables, error) {
	var res [len(tableConfigs)]*RunResult
	for i, p := range pt {
		r, err := p.Wait()
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	return &Tables{Flat: res[0], QUADExcl: res[1], QUADIncl: res[2], InstrFlat: res[3], Phases: res[4]}, nil
}

// WriteTables renders Tables I–IV, each under a "###" heading, with the
// phases detected over the run set's fine-sliced profile.
func (s *Study) WriteTables(w io.Writer, t *Tables) {
	fmt.Fprintf(w, "### Table I — flat profile (gprof analogue)\n\n%s\n", RenderTableI(t.Flat.Flat))
	fmt.Fprintf(w, "### Table II — QUAD producer/consumer summary\n\n%s\n", RenderTableII(t.QUADExcl.Quad, t.QUADIncl.Quad))
	fmt.Fprintf(w, "### Table III — flat profile of the QUAD-instrumented run\n\n%s\n", RenderTableIII(t.Flat.Flat, t.InstrFlat.Flat))
	prof := t.Phases.Temporal
	phases := s.PhasesFromProfile(prof)
	fmt.Fprintf(w, "### Table IV — %d phases over %d slices of %d instructions\n\n%s",
		len(phases), prof.NumSlices, PhaseInterval, RenderTableIV(phases, prof.NumSlices))
}
