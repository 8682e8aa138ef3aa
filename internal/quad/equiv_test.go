package quad_test

// Equivalence of the dense QUAD tool with the map-based original
// (AttachMapOracle, mapref_test.go) on generated guests.  The generator
// follows the internal/hl differential tests: a seeded rng draws a random
// multi-kernel program through the builder API, here biased towards the
// cases the dense layout must get right — accesses straddling a 4 KiB
// page, 1/2/4/8/16-byte loads and stores at odd offsets, nested calls
// including glibc routines, stack traffic, prefetches and predicated
// accesses.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/glibc"
	"tquad/internal/gos"
	"tquad/internal/hl"
	"tquad/internal/image"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/shadow"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// genOp kinds.
const (
	opStore     = iota // store sz bytes at heap+off
	opLoad             // load sz bytes from heap+off
	opEdgeStore        // store sz bytes at page boundary+off (off may be negative)
	opEdgeLoad         // load sz bytes from page boundary+off
	opStackSt          // store 8 bytes into the frame buffer
	opStackLd          // load 8 bytes from the frame buffer
	opCopy16           // 16-byte wide copy heap+off2 -> heap+off
	opMemcpy           // glibc memcpy(heap+off, heap+off2, n)
	opMemset           // glibc memset(heap+off, v, n)
	opCall             // call a deeper kernel
	opPrefetch         // prefetch heap+off
	opPredSt           // predicated 8-byte store, predicate = taken
	opPredLd           // predicated 8-byte load, predicate = taken
	numOps
)

// genOp is one pre-drawn kernel statement.  The hl builder runs each body
// twice (sizing and emission), so bodies replay ops instead of drawing.
type genOp struct {
	kind      int
	sz        int
	off, off2 int64
	n         int64
	callee    int
	taken     bool
}

const (
	heapSize  = 3 * shadow.PageSize // spans at least two page boundaries
	frameSize = 64
)

// genGuest draws a program of 2..5 kernels k0..kN; kernel i calls only
// kernels j > i, so every call chain terminates.
func genGuest(rng *rand.Rand) [][]genOp {
	nk := 2 + rng.Intn(4)
	kernels := make([][]genOp, nk)
	for k := range kernels {
		steps := 4 + rng.Intn(24)
		for s := 0; s < steps; s++ {
			op := genOp{
				kind:  rng.Intn(numOps),
				sz:    1 << rng.Intn(4),
				off:   int64(rng.Intn(heapSize - 64)),
				off2:  int64(rng.Intn(heapSize - 64)),
				n:     int64(1 + rng.Intn(40)),
				taken: rng.Intn(2) == 0,
			}
			switch op.kind {
			case opEdgeStore, opEdgeLoad:
				op.off = int64(rng.Intn(17) - 8)
			case opStackSt, opStackLd:
				op.off = int64(rng.Intn(frameSize/8)) * 8
			case opCall:
				if k == nk-1 {
					op.kind = opLoad
				} else {
					op.callee = k + 1 + rng.Intn(nk-k-1)
				}
			}
			kernels[k] = append(kernels[k], op)
		}
	}
	return kernels
}

func kernelName(k int) string { return fmt.Sprintf("k%d", k) }

func load(f *hl.Fn, sz int, base hl.Reg, off int64) hl.Reg {
	switch sz {
	case 1:
		return f.Ld1(base, off)
	case 2:
		return f.Ld2(base, off)
	case 4:
		return f.Ld4(base, off)
	}
	return f.Ld8(base, off)
}

func store(f *hl.Fn, sz int, base hl.Reg, off int64, v hl.Reg) {
	switch sz {
	case 1:
		f.St1(base, off, v)
	case 2:
		f.St2(base, off, v)
	case 4:
		f.St4(base, off, v)
	default:
		f.St8(base, off, v)
	}
}

// buildGuest links the drawn kernels (plus a main that runs each kernel
// once, in order, and k0 a second time) against glibc.
func buildGuest(t testing.TB, kernels [][]genOp) *hl.Program {
	t.Helper()
	b := hl.NewBuilder("quadgen", image.Main)
	heap := b.Global("heap", heapSize)
	for k, ops := range kernels {
		b.Func(kernelName(k), 0, func(f *hl.Fn) {
			frame := f.Alloca(frameSize)
			base, edge, acc := f.Local(), f.Local(), f.Local()
			f.Set(base, f.GAddr(heap))
			// The first page boundary inside heap.
			f.Set(edge, f.AndI(f.AddI(base, shadow.PageSize), ^int64(shadow.PageSize-1)))
			f.SetI(acc, int64(k+1))
			for _, op := range ops {
				switch op.kind {
				case opStore:
					store(f, op.sz, base, op.off, acc)
				case opLoad:
					f.Set(acc, f.Add(acc, load(f, op.sz, base, op.off)))
				case opEdgeStore:
					store(f, op.sz, edge, op.off, acc)
				case opEdgeLoad:
					f.Set(acc, f.Add(acc, load(f, op.sz, edge, op.off)))
				case opStackSt:
					f.St8(f.FrameAddr(frame), int64(op.off), acc)
				case opStackLd:
					f.Set(acc, f.Add(acc, f.Ld8(f.FrameAddr(frame), int64(op.off))))
				case opCopy16:
					f.Cpy16(base, op.off, base, op.off2)
				case opMemcpy:
					f.CallV("memcpy", f.AddI(base, op.off), f.AddI(base, op.off2), f.Const(op.n))
				case opMemset:
					f.CallV("memset", f.AddI(base, op.off), acc, f.Const(op.n))
				case opCall:
					f.Set(acc, f.Add(acc, f.Call(kernelName(op.callee))))
				case opPrefetch:
					f.Prefetch(base, op.off)
				case opPredSt, opPredLd:
					var p int64
					if op.taken {
						p = 1
					}
					f.SetPred(f.Const(p))
					if op.kind == opPredSt {
						f.PredSt8(base, op.off&^7, acc)
					} else {
						f.PredLd8(acc, base, op.off&^7)
					}
				}
			}
			f.Ret(f.AndI(acc, 0xff))
		})
	}
	b.Func("main", 0, func(f *hl.Fn) {
		for k := range kernels {
			f.CallV(kernelName(k))
		}
		f.CallV(kernelName(0))
		f.Ret(f.Zero())
	})
	prog, err := hl.Link(b, glibc.Builder())
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return prog
}

func newMachine(prog *hl.Program) *vm.Machine {
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)
	return m
}

type quadRun struct {
	rep      *quad.Report
	overhead uint64
}

// compareQUAD runs prog under the dense tool (recording an event trace),
// under the map oracle, and replays the trace into the dense tool; all
// three reports and analysis-overhead totals must be identical.
func compareQUAD(t testing.TB, prog *hl.Program, opts quad.Options) {
	t.Helper()
	const fuel = 5_000_000

	m := newMachine(prog)
	e := pin.NewEngine(m)
	dense := quad.Attach(e, opts)
	var trace bytes.Buffer
	rec, err := etrace.Record(e, &trace, etrace.RecordOptions{Workload: "quadgen", Blocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(fuel); err != nil {
		t.Fatalf("dense run: %v", err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	live := quadRun{dense.Report(), m.Overhead}

	m = newMachine(prog)
	oracle := quad.AttachMapOracle(pin.NewEngine(m), opts)
	if err := m.Run(fuel); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	ref := quadRun{oracle.Report(), m.Overhead}

	rp, err := etrace.NewReplayer(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := quad.Attach(rp, opts)
	if err := rp.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	replay := quadRun{replayed.Report(), rp.Overhead()}

	if len(ref.rep.Kernels) == 0 {
		t.Fatalf("%+v: oracle saw no kernels", opts)
	}
	for _, c := range []struct {
		name string
		got  quadRun
	}{{"dense live", live}, {"dense replay", replay}} {
		if !reflect.DeepEqual(c.got.rep, ref.rep) {
			t.Errorf("%+v: %s report differs from the map oracle\n got: %+v\nwant: %+v", opts, c.name, *c.got.rep, *ref.rep)
		}
		if c.got.overhead != ref.overhead {
			t.Errorf("%+v: %s overhead %d, map oracle %d", opts, c.name, c.got.overhead, ref.overhead)
		}
	}
}

// allModes is every IncludeStack × ExcludeLibs combination.
var allModes = []quad.Options{
	{IncludeStack: false, ExcludeLibs: false},
	{IncludeStack: true, ExcludeLibs: false},
	{IncludeStack: false, ExcludeLibs: true},
	{IncludeStack: true, ExcludeLibs: true},
}

// TestQUADMatchesMapOracle: on generated guests and the hand-written
// producer/consumer guest, in every stack × library mode, the dense tool
// (live and replayed) reports exactly what the map-based original does
// and charges exactly the same analysis overhead.
func TestQUADMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 24; trial++ {
		prog := buildGuest(t, genGuest(rng))
		for _, opts := range allModes {
			compareQUAD(t, prog, opts)
		}
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

// FuzzQUADEquivalence is TestQUADMatchesMapOracle with the generator's
// seed under the fuzzer's control.
func FuzzQUADEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 20261017} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := buildGuest(t, genGuest(rand.New(rand.NewSource(seed))))
		for _, opts := range allModes {
			compareQUAD(t, prog, opts)
		}
	})
}

// BenchmarkQUADDenseVsMap prices the dense hot path against the map-based
// original on the small WFS run, stack included (the Table II incl mode).
func BenchmarkQUADDenseVsMap(b *testing.B) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		b.Fatal(err)
	}
	opts := quad.Options{IncludeStack: true}
	for _, c := range []struct {
		name   string
		attach func(h pin.Host)
	}{
		{"dense", func(h pin.Host) { quad.Attach(h, opts) }},
		{"map", func(h pin.Host) { quad.AttachMapOracle(h, opts) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, _ := w.NewMachine()
				c.attach(pin.NewEngine(m))
				if err := m.Run(wfs.MaxInstr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
