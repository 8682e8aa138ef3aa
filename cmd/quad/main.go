// Command quad runs the QUAD memory-access-pattern analyser on the WFS
// case-study workload, printing the Table II producer/consumer summary
// and, optionally, the QDU graph in Graphviz DOT form.
//
// Usage:
//
//	quad [-config small|study] [-stack include|exclude|both]
//	     [-ignore-libs] [-dot FILE] [-min-bytes N]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"tquad/internal/cliutil"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quad: ")
	var (
		config     = flag.String("config", "small", "workload configuration: small or study")
		stack      = flag.String("stack", "both", "stack-area accesses: include, exclude or both")
		ignoreLibs = flag.Bool("ignore-libs", false, "exclude OS/library routine accesses")
		dotFile    = flag.String("dot", "", "write the QDU graph in DOT form to this file (- for stdout)")
		minBytes   = flag.Uint64("min-bytes", 1, "omit QDU edges thinner than this")
		jsonFile   = flag.String("json", "", "also write the stack-inclusive report as JSON to this file")
	)
	flag.Parse()

	cfg, err := wfs.ConfigByName(*config)
	if err != nil {
		log.Fatal(err)
	}

	run := func(includeStack bool) *quad.Report {
		w, err := wfs.NewWorkload(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m, _ := w.NewMachine()
		e := pin.NewEngine(m)
		tool := quad.Attach(e, quad.Options{IncludeStack: includeStack, ExcludeLibs: *ignoreLibs})
		if err := m.Run(wfs.MaxInstr); err != nil {
			log.Fatalf("run: %v", err)
		}
		return tool.Report()
	}

	saveJSON := func(rep *quad.Report) {
		if *jsonFile == "" {
			return
		}
		err := cliutil.WriteFile(*jsonFile, func(w io.Writer) error { return trace.SaveQUAD(w, rep) })
		if err != nil {
			log.Fatalf("-json: %v", err)
		}
	}

	switch *stack {
	case "both":
		excl := run(false)
		incl := run(true)
		fmt.Print(study.RenderTableII(excl, incl))
		writeDot(incl, *dotFile, *minBytes)
		saveJSON(incl)
	case "include", "exclude":
		rep := run(*stack == "include")
		t := report.NewTable("kernel", "IN", "IN UnMA", "OUT", "OUT UnMA")
		for _, k := range rep.Kernels {
			t.AddRow(k.Name, report.U(k.In), report.U(k.InUnMA), report.U(k.Out), report.U(k.OutUnMA))
		}
		fmt.Print(t.String())
		writeDot(rep, *dotFile, *minBytes)
		saveJSON(rep)
	default:
		log.Fatalf("bad -stack %q", *stack)
	}
}

func writeDot(rep *quad.Report, path string, minBytes uint64) {
	if path == "" {
		return
	}
	dot := rep.QDUGraphDOT(minBytes)
	if path == "-" {
		fmt.Print(dot)
		return
	}
	if err := os.WriteFile(path, []byte(dot), 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("QDU graph written to %s\n", path)
}
