// Package quad implements QUAD, the memory-access-pattern analyser tQUAD
// complements (Ostadzadeh et al., ARC 2010): it tracks, via shadow
// memory, which kernel produced every guest byte and which kernel
// consumes it, yielding producer→consumer bindings, per-kernel IN/OUT
// byte totals and unique-memory-address (UnMA) counts — the contents of
// Table II — plus the Quantitative Data Usage (QDU) graph.
//
// The tool is written against the pin instrumentation API exactly as the
// paper's pseudocode sketches: instruction-level instrumentation attaches
// IncreaseRead/IncreaseWrite analysis calls (predicated, returning
// immediately for prefetches), and routine-level instrumentation keeps
// the internal call stack via EnterFC, with returns monitored at the
// instruction level.
package quad

import (
	"fmt"
	"sort"
	"strings"

	"tquad/internal/callstack"
	"tquad/internal/pin"
	"tquad/internal/shadow"
)

// Options configure one QUAD run.
type Options struct {
	// IncludeStack counts local-stack-area accesses; when false they are
	// discarded as early as possible (the cheap path the paper
	// describes).
	IncludeStack bool
	// ExcludeLibs drops accesses made by routines outside the main
	// image.
	ExcludeLibs bool

	// Simulated analysis-routine costs, in instruction-equivalents, used
	// for the instrumented-run experiments (Table III, slowdown study).
	// Zero values select the defaults.
	CostTrace    uint64 // full shadow-memory trace of one access
	CostSkip     uint64 // early-discarded stack access
	CostPrefetch uint64 // immediate return on prefetch detection
}

// Default analysis costs (instruction-equivalents per access).  The trace
// path walks shadow memory per byte and updates three structures; the
// skip path is a bounds check.
const (
	DefaultCostTrace    = 30
	DefaultCostSkip     = 3
	DefaultCostPrefetch = 1
)

func (o *Options) setDefaults() {
	if o.CostTrace == 0 {
		o.CostTrace = DefaultCostTrace
	}
	if o.CostSkip == 0 {
		o.CostSkip = DefaultCostSkip
	}
	if o.CostPrefetch == 0 {
		o.CostPrefetch = DefaultCostPrefetch
	}
}

// kernelData accumulates per-kernel counters.
type kernelData struct {
	name     string
	id       uint16
	inBytes  uint64
	readSet  *shadow.AddrSet
	writeSet *shadow.AddrSet
	// from[producer] = bytes this kernel read that producer last wrote,
	// producer shadow.NoOwner meaning the byte had no tracked producer
	// (e.g. data placed by the simulated OS).  The row grows as kernels
	// appear; the whole set of rows is the producer×consumer matrix.
	from []uint64
}

// Tool is one attached QUAD instance.
type Tool struct {
	opts  Options
	host  pin.Host
	stack *callstack.Stack

	owners *shadow.Owners
	// kernels is indexed by callstack Frame.ID; an entry is created on
	// the kernel's first attributed access (nil until then).
	kernels []*kernelData
}

// Attach wires a QUAD tool onto the host — a live pin.Engine or a trace
// replayer.  Call before running the machine (or the replay).
func Attach(h pin.Host, opts Options) *Tool {
	opts.setDefaults()
	t := &Tool{
		opts:   opts,
		host:   h,
		owners: shadow.NewOwners(),
	}
	h.InitSymbols()
	t.stack = callstack.New(func(target uint64) (string, bool, bool) {
		rtn, ok := h.RTNFindByAddress(target)
		if !ok {
			return "", false, false
		}
		return rtn.Name(), rtn.IsInMainImage(), true
	}, opts.ExcludeLibs)

	h.INSAddInstrumentFunction(t.instruction)
	return t
}

// current resolves the kernel currently on top of the internal call
// stack, creating its entry on first use; ok is false inside excluded
// library regions or before main image entry.
func (t *Tool) current() (*kernelData, bool) {
	fr, ok := t.stack.Current()
	if !ok {
		return nil, false
	}
	if int(fr.ID) < len(t.kernels) {
		if k := t.kernels[fr.ID]; k != nil {
			return k, true
		}
	} else {
		t.kernels = append(t.kernels, make([]*kernelData, int(fr.ID)+1-len(t.kernels))...)
	}
	k := &kernelData{
		name:     fr.Name,
		id:       fr.ID,
		readSet:  shadow.NewAddrSet(),
		writeSet: shadow.NewAddrSet(),
	}
	t.kernels[fr.ID] = k
	return k, true
}

// instruction is the INS instrumentation routine (the paper's
// Instruction()): it attaches the analysis calls.
func (t *Tool) instruction(ins *pin.INS) {
	h := t.host
	switch {
	case ins.IsCall():
		ins.InsertCall(func(ctx *pin.Context) {
			// The return-address push is stack traffic of the caller
			// (it lands just below the caller's SP, so it is forced
			// into the stack class).
			t.write(ctx, true)
			t.stack.OnCall(ctx.Target) // EnterFC
		})
	case ins.IsRet():
		ins.InsertCall(func(ctx *pin.Context) {
			// The return-address pop is stack traffic of the callee.
			t.read(ctx, true)
			t.stack.OnReturn()
		})
	case ins.IsMemoryRead():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.increaseRead(ctx)
		})
	case ins.IsMemoryWrite():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.increaseWrite(ctx)
		})
	}
}

// increaseRead is the IncreaseRead analysis routine.
func (t *Tool) increaseRead(ctx *pin.Context) {
	t.read(ctx, t.host.IsStackAddr(ctx.Addr, ctx.SP))
}

// increaseWrite is the IncreaseWrite analysis routine.
func (t *Tool) increaseWrite(ctx *pin.Context) {
	t.write(ctx, t.host.IsStackAddr(ctx.Addr, ctx.SP))
}

func (t *Tool) read(ctx *pin.Context, isStack bool) {
	h := t.host
	if !t.opts.IncludeStack && isStack {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	k, ok := t.current()
	if !ok {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	h.ChargeOverhead(t.opts.CostTrace)
	k.inBytes += uint64(ctx.Size)
	k.readSet.AddRange(ctx.Addr, ctx.Size)
	// Every stored owner id belongs to an existing kernel, so a row as
	// long as kernels can index any of them.
	if n := len(t.kernels); len(k.from) < n {
		k.from = append(k.from, make([]uint64, n-len(k.from))...)
	}
	t.owners.Count(ctx.Addr, ctx.Size, k.from)
}

func (t *Tool) write(ctx *pin.Context, isStack bool) {
	h := t.host
	if !t.opts.IncludeStack && isStack {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	k, ok := t.current()
	if !ok {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	h.ChargeOverhead(t.opts.CostTrace)
	k.writeSet.AddRange(ctx.Addr, ctx.Size)
	t.owners.SetRange(ctx.Addr, ctx.Size, k.id)
}

// KernelStats is one row of Table II.
type KernelStats struct {
	Name    string
	In      uint64 // bytes read by the kernel
	InUnMA  uint64 // unique addresses read
	Out     uint64 // bytes read by anyone from locations this kernel wrote
	OutUnMA uint64 // unique addresses written
}

// Binding is one edge of the QDU graph.
type Binding struct {
	Producer string // "" when the data had no tracked producer
	Consumer string
	Bytes    uint64
}

// Report is the outcome of one QUAD run.
type Report struct {
	Kernels  []KernelStats // sorted by name
	Bindings []Binding     // sorted by descending bytes
}

// Report assembles the run's results.
func (t *Tool) Report() *Report {
	out := make([]uint64, len(t.kernels)) // producer -> total bytes consumed by anyone
	var bindings []Binding
	for _, cons := range t.kernels {
		if cons == nil {
			continue
		}
		for prod, bytes := range cons.from {
			if bytes == 0 {
				continue
			}
			pname := ""
			if prod != int(shadow.NoOwner) {
				out[prod] += bytes
				pname = t.kernels[prod].name
			}
			bindings = append(bindings, Binding{Producer: pname, Consumer: cons.name, Bytes: bytes})
		}
	}
	var rows []KernelStats
	for _, k := range t.kernels {
		if k == nil {
			continue
		}
		rows = append(rows, KernelStats{
			Name:    k.name,
			In:      k.inBytes,
			InUnMA:  k.readSet.Count(),
			Out:     out[k.id],
			OutUnMA: k.writeSet.Count(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	sort.Slice(bindings, func(i, j int) bool {
		if bindings[i].Bytes != bindings[j].Bytes {
			return bindings[i].Bytes > bindings[j].Bytes
		}
		if bindings[i].Producer != bindings[j].Producer {
			return bindings[i].Producer < bindings[j].Producer
		}
		return bindings[i].Consumer < bindings[j].Consumer
	})
	return &Report{Kernels: rows, Bindings: bindings}
}

// Kernel returns the stats row for one kernel name.
func (r *Report) Kernel(name string) (KernelStats, bool) {
	for _, k := range r.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return KernelStats{}, false
}

// QDUGraphDOT renders the QDU graph in Graphviz DOT form.  Edges thinner
// than minBytes are omitted to keep the graph readable (the paper's QDU
// graph was "not possible to include ... due to space limitations").
func (r *Report) QDUGraphDOT(minBytes uint64) string {
	var b strings.Builder
	b.WriteString("digraph QDU {\n  rankdir=LR;\n  node [shape=box];\n")
	nodes := make(map[string]bool)
	for _, e := range r.Bindings {
		if e.Bytes < minBytes || e.Producer == "" {
			continue
		}
		nodes[e.Producer] = true
		nodes[e.Consumer] = true
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range r.Bindings {
		if e.Bytes < minBytes || e.Producer == "" {
			continue
		}
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d\"];\n", e.Producer, e.Consumer, e.Bytes)
	}
	b.WriteString("}\n")
	return b.String()
}
