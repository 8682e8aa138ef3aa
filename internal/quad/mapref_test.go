package quad

// The original map-based QUAD, kept as the equivalence oracle for the
// dense tool: kernels interned by name through a string map, a nested
// bindings[producer][consumer] map incremented once per byte read, and
// map-per-address shadow state.  It charges the same analysis costs on
// the same paths, so a run under it must match the dense tool's report
// and overhead exactly.

import (
	"sort"

	"tquad/internal/callstack"
	"tquad/internal/pin"
)

type mapKernel struct {
	name     string
	inBytes  uint64
	readSet  map[uint64]struct{}
	writeSet map[uint64]struct{}
}

// MapTool is one attached map-based QUAD instance.
type MapTool struct {
	opts  Options
	host  pin.Host
	stack *callstack.Stack

	owners   map[uint64]uint16
	kernels  []*mapKernel // index = kernel id (0 unused)
	ids      map[string]uint16
	bindings map[uint16]map[uint16]uint64
}

// AttachMapOracle wires the map-based QUAD onto the host.
func AttachMapOracle(h pin.Host, opts Options) *MapTool {
	opts.setDefaults()
	t := &MapTool{
		opts:     opts,
		host:     h,
		owners:   make(map[uint64]uint16),
		kernels:  []*mapKernel{nil},
		ids:      make(map[string]uint16),
		bindings: make(map[uint16]map[uint16]uint64),
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

func (t *MapTool) kernelID(name string) uint16 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.kernels))
	t.ids[name] = id
	t.kernels = append(t.kernels, &mapKernel{
		name:     name,
		readSet:  make(map[uint64]struct{}),
		writeSet: make(map[uint64]struct{}),
	})
	return id
}

func (t *MapTool) current() (uint16, bool) {
	fr, ok := t.stack.Current()
	if !ok {
		return 0, false
	}
	return t.kernelID(fr.Name), true
}

func (t *MapTool) instruction(ins *pin.INS) {
	h := t.host
	switch {
	case ins.IsCall():
		ins.InsertCall(func(ctx *pin.Context) {
			t.write(ctx, true)
			t.stack.OnCall(ctx.Target)
		})
	case ins.IsRet():
		ins.InsertCall(func(ctx *pin.Context) {
			t.read(ctx, true)
			t.stack.OnReturn()
		})
	case ins.IsMemoryRead():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.read(ctx, h.IsStackAddr(ctx.Addr, ctx.SP))
		})
	case ins.IsMemoryWrite():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.write(ctx, h.IsStackAddr(ctx.Addr, ctx.SP))
		})
	}
}

func (t *MapTool) read(ctx *pin.Context, isStack bool) {
	h := t.host
	if !t.opts.IncludeStack && isStack {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	me, ok := t.current()
	if !ok {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	h.ChargeOverhead(t.opts.CostTrace)
	k := t.kernels[me]
	k.inBytes += uint64(ctx.Size)
	for i := 0; i < ctx.Size; i++ {
		a := ctx.Addr + uint64(i)
		k.readSet[a] = struct{}{}
		prod := t.owners[a]
		bm := t.bindings[prod]
		if bm == nil {
			bm = make(map[uint16]uint64)
			t.bindings[prod] = bm
		}
		bm[me]++
	}
}

func (t *MapTool) write(ctx *pin.Context, isStack bool) {
	h := t.host
	if !t.opts.IncludeStack && isStack {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	me, ok := t.current()
	if !ok {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	h.ChargeOverhead(t.opts.CostTrace)
	k := t.kernels[me]
	for i := 0; i < ctx.Size; i++ {
		a := ctx.Addr + uint64(i)
		k.writeSet[a] = struct{}{}
		t.owners[a] = me
	}
}

// Report assembles the run's results exactly as the original tool did.
func (t *MapTool) Report() *Report {
	out := make(map[uint16]uint64)
	var bindings []Binding
	for prod, consumers := range t.bindings {
		for cons, bytes := range consumers {
			pname := ""
			if prod != 0 {
				out[prod] += bytes
				pname = t.kernels[prod].name
			}
			bindings = append(bindings, Binding{Producer: pname, Consumer: t.kernels[cons].name, Bytes: bytes})
		}
	}
	var rows []KernelStats
	for id := 1; id < len(t.kernels); id++ {
		k := t.kernels[id]
		rows = append(rows, KernelStats{
			Name:    k.name,
			In:      k.inBytes,
			InUnMA:  uint64(len(k.readSet)),
			Out:     out[uint16(id)],
			OutUnMA: uint64(len(k.writeSet)),
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
