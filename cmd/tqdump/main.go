// Command tqdump inspects guest binary images: symbol tables, segment
// layout and instruction-level disassembly — the "objdump" of the
// simulated toolchain.  It can also save the built images to disk and
// re-inspect them, demonstrating that the profilers need nothing but the
// binary machine code, and summarise recorded event traces (-etrace).
//
// Usage:
//
//	tqdump [-app wfs|imgproc] [-config small|study] [-func NAME]
//	       [-save DIR] [-load FILE...]
//	tqdump -etrace FILE [-salvage | -json]
//
// With -etrace, the trace is verified end to end (header checksum, every
// chunk's CRC32C, the index footer) and a per-chunk health report is
// printed when damage is found.  -salvage additionally replays around the
// damage and reports exactly what was lost.  Exit status triages stored
// traces for scripts: 0 the trace is intact, 3 it is damaged but
// salvageable (header and framing are usable), 4 it is unreadable.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"tquad/internal/cfg"
	"tquad/internal/etrace"
	"tquad/internal/image"
	"tquad/internal/imgproc"
	"tquad/internal/isa"
	"tquad/internal/pin"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tqdump: ")
	var (
		app        = flag.String("app", "wfs", "application to build: wfs or imgproc")
		config     = flag.String("config", "small", "wfs configuration: small or study")
		fnName     = flag.String("func", "", "disassemble this routine (default: symbols only)")
		cfgDump    = flag.Bool("cfg", false, "with -func: dump the routine's control-flow graph as DOT")
		saveDir    = flag.String("save", "", "write the built images to this directory as .tqi files")
		etracePath = flag.String("etrace", "", "summarise this recorded event trace instead of dumping images")
		salvage    = flag.Bool("salvage", false, "with -etrace: replay around damaged chunks and report the gap")
		jsonOut    = flag.Bool("json", false, "with -etrace: emit a machine-readable JSON summary instead of text")
	)
	flag.Parse()

	if *etracePath != "" {
		var (
			code int
			err  error
		)
		if *jsonOut {
			code, err = dumpTraceJSON(os.Stdout, *etracePath)
		} else {
			code, err = dumpTrace(*etracePath, *salvage)
		}
		if err != nil {
			log.Fatal(err)
		}
		os.Exit(code)
	}

	var images []*image.Image
	if args := flag.Args(); len(args) > 0 {
		// Load mode: inspect serialised images.
		for _, path := range args {
			blob, err := os.ReadFile(path)
			if err != nil {
				log.Fatal(err)
			}
			img, err := image.Unmarshal(blob)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			images = append(images, img)
		}
	} else {
		images = buildImages(*app, *config)
	}

	if *saveDir != "" {
		if err := os.MkdirAll(*saveDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, img := range images {
			path := filepath.Join(*saveDir, img.Name+".tqi")
			if err := os.WriteFile(path, img.Marshal(), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(img.Marshal()))
		}
	}

	for _, img := range images {
		dumpImage(img, *fnName, *cfgDump)
	}
}

// Exit codes of -etrace mode, stable for scripted triage of stored
// traces.  1 remains the generic usage/fatal exit (log.Fatal).
const (
	exitTraceOK          = 0 // trace verified intact
	exitTraceSalvageable = 3 // damaged, but header and framing are usable
	exitTraceUnreadable  = 4 // header unreadable; nothing can be trusted
)

// dumpTrace verifies a recorded event trace and summarises it: header,
// routine table, record counts, the recorded final machine state, and —
// when damage is found — a per-chunk health report and (with -salvage)
// the salvage replay's loss accounting.  The int is the process exit
// code; the error covers host-side failures (the file itself unreadable).
func dumpTrace(path string, salvage bool) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 1, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 1, err
	}
	health, err := etrace.Verify(f, st.Size())
	if err != nil {
		fmt.Printf("event trace %s: UNREADABLE: %v\n", path, err)
		return exitTraceUnreadable, nil
	}
	if !health.Damaged() {
		if err := dumpTraceInfo(os.Stdout, path, f, st.Size()); err != nil {
			return 1, err
		}
		integrity := "no checksums (v1 format)"
		if health.Checksummed {
			integrity = fmt.Sprintf("header, %d chunks and index footer verified (CRC32C)", len(health.Chunks))
		}
		fmt.Printf("integrity: ok, %s\n", integrity)
		return exitTraceOK, nil
	}
	dumpHealth(os.Stdout, path, health)
	if salvage {
		if err := dumpSalvage(os.Stdout, f, st.Size()); err != nil {
			fmt.Printf("salvage: FAILED: %v\n", err)
		}
	} else {
		fmt.Println("rerun with -salvage to replay around the damage")
	}
	return exitTraceSalvageable, nil
}

// dumpHealth renders the per-chunk health report: every chunk when the
// trace is small, damaged chunks only when it is not.
func dumpHealth(w io.Writer, path string, h *Health) {
	fmt.Fprintf(w, "event trace %s: DAMAGED (format v%d)\n", path, h.Version)
	if h.IndexErr != "" {
		fmt.Fprintf(w, "index footer: BROKEN (%s); chunk table rebuilt by frame scan\n", h.IndexErr)
	} else if h.Indexed {
		fmt.Fprintf(w, "index footer: ok, %d chunk entries\n", len(h.Chunks))
	} else {
		fmt.Fprintln(w, "index footer: none; chunk table rebuilt by frame scan")
	}
	const fullTableMax = 32
	full := len(h.Chunks) <= fullTableMax
	for i, c := range h.Chunks {
		if !full && c.Err == "" {
			continue
		}
		status := "ok"
		if c.Err != "" {
			status = "BAD: " + c.Err
		}
		extent := ""
		if c.Ref.Records > 0 {
			extent = fmt.Sprintf(", %d records, ic [%d,%d]", c.Ref.Records, c.Ref.StartIC, c.Ref.EndIC)
		}
		fmt.Fprintf(w, "  chunk %4d  [%#x +%d]%s  %s\n", i, c.Ref.Offset, c.Ref.Size, extent, status)
	}
	if !full {
		fmt.Fprintf(w, "  (%d healthy chunks not listed)\n", len(h.Chunks)-h.Bad)
	}
	if h.LostTailBytes > 0 {
		fmt.Fprintf(w, "torn tail: %d trailing bytes unreachable past the last sound frame\n", h.LostTailBytes)
	}
	if !h.Complete {
		fmt.Fprintln(w, "final state: MISSING (end record damaged or lost)")
	}
	fmt.Fprintf(w, "chunks: %d total, %d damaged\n", len(h.Chunks), h.Bad)
}

// Health is re-exported locally for dumpHealth's signature brevity.
type Health = etrace.Health

// dumpSalvage replays the damaged trace in salvage mode (no tools
// attached — the point is the loss accounting) and prints what survived.
func dumpSalvage(w io.Writer, ra io.ReaderAt, size int64) error {
	p, err := etrace.NewParallelReplayer(ra, size, etrace.ParallelOptions{Jobs: 1, Salvage: true})
	if err != nil {
		return err
	}
	c := p.NewConsumer()
	if err := p.Replay(); err != nil {
		return err
	}
	rep := c.SalvageReport()
	fmt.Fprintf(w, "salvage: %s\n", rep)
	if rep.Complete {
		halted := "halted"
		if !c.Halted() {
			halted = "stopped"
		}
		fmt.Fprintf(w, "final state: %d instructions, pc %#x, exit code %d, %s\n",
			c.ICount(), c.CurrentPC(), c.ExitCode(), halted)
	}
	return nil
}

// dumpTraceInfo prints the summary of the size-byte trace in ra.  The
// trace is summarised one chunk at a time, never buffered whole, so
// multi-gigabyte recordings work.
func dumpTraceInfo(w io.Writer, name string, ra io.ReaderAt, size int64) error {
	info, err := etrace.Stat(ra, size)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(w, "event trace %s: format v%d, workload %q, stack base %#x\n",
		name, info.Version, info.Workload, info.StackBase)
	fmt.Fprintf(w, "routines (%d):\n", len(info.Routines))
	for _, rt := range info.Routines {
		kind := "lib "
		if rt.Main {
			kind = "main"
		}
		fmt.Fprintf(w, "  %#08x  %s  %-28s %5d instructions\n",
			rt.Entry, kind, rt.Name, (rt.End-rt.Entry)/isa.InstrSize)
	}
	fmt.Fprintf(w, "records: %d static, %d reads, %d writes, %d calls, %d returns (%d skipped), %d block defs, %d blocks, %d chunks\n",
		info.Statics, info.Reads, info.Writes, info.Calls, info.Returns,
		info.Skipped, info.BlockDefs, info.Blocks, info.Chunks)
	if info.Indexed {
		fmt.Fprintf(w, "index: footer with %d chunk entries\n", info.IndexChunks)
	} else {
		fmt.Fprintln(w, "index: none (footer absent; parallel replay scans chunk frames)")
	}
	if !info.Complete {
		fmt.Fprintln(w, "final state: MISSING (truncated trace, no end record)")
		return nil
	}
	halted := "halted"
	if !info.Halted {
		halted = "stopped"
	}
	fmt.Fprintf(w, "final state: %d instructions, pc %#x, exit code %d, %s\n",
		info.FinalICount, info.FinalPC, info.ExitCode, halted)
	return nil
}

func buildImages(app, config string) []*image.Image {
	switch app {
	case "wfs":
		var cfg wfs.Config
		switch config {
		case "small":
			cfg = wfs.Small()
		case "study":
			cfg = wfs.Study()
		default:
			log.Fatalf("unknown config %q", config)
		}
		w, err := wfs.NewWorkload(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return w.Prog.Images()
	case "imgproc":
		w, err := imgproc.NewWorkload(imgproc.Small())
		if err != nil {
			log.Fatal(err)
		}
		return w.Prog.Images()
	}
	log.Fatalf("unknown app %q", app)
	return nil
}

func dumpImage(img *image.Image, fnName string, cfgDump bool) {
	fmt.Printf("image %s (%s): code [%#x,%#x) %d bytes, data [%#x,%#x) %d init + %d bss\n",
		img.Name, img.Kind, img.Base, img.CodeEnd(), len(img.Code),
		img.DataBase, img.DataEnd(), len(img.Data), img.BSSSize)
	if fnName == "" {
		for _, r := range img.Routines() {
			fmt.Printf("  %#08x  %-28s %5d instructions\n",
				r.Entry, r.Name, (r.End-r.Entry)/isa.InstrSize)
		}
		fmt.Println()
		return
	}
	r, ok := img.Lookup(fnName)
	if !ok {
		return // not in this image
	}
	code, valid := pin.RoutineCode(img, r)
	if !valid {
		// A hand-edited or corrupted .tqi can claim a routine span outside
		// the code segment; report it instead of slicing out of bounds.
		log.Fatalf("%s: symbol table entry %s [%#x,%#x) lies outside the code segment",
			img.Name, r.Name, r.Entry, r.End)
	}
	if cfgDump {
		g, err := cfg.Build(code, r.Entry)
		if err != nil {
			log.Fatalf("cfg %s: %v", fnName, err)
		}
		fmt.Print(g.DOT(fnName))
		return
	}
	instrs, err := isa.Disassemble(code)
	if err != nil {
		log.Fatalf("disassemble %s: %v", fnName, err)
	}
	fmt.Printf("\n%s:\n", fnName)
	for i, ins := range instrs {
		pc := r.Entry + uint64(i)*isa.InstrSize
		fmt.Printf("  %#08x  %s\n", pc, ins)
	}
	fmt.Println()
}
