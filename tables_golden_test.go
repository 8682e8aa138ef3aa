package repro_test

// Byte-for-byte goldens for the QUAD-backed paper artifacts on the small
// configuration.  The shape assertions in repro_test.go would survive a
// QUAD rewrite that shifted a few bytes between kernels; these do not.
// testdata/golden_tables_small.txt holds Table II, both QUAD reports in
// full (every kernel row and every binding, including those the table and
// the QDU graph leave out), the analysis overhead each mode charges and
// Table III, whose instrumented clock is built from that overhead.
// testdata/golden_qdu_small.dot holds the stack-inclusive QDU graph.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tquad/internal/quad"
	"tquad/internal/study"
)

// writeQUADReport dumps every field of a report, one line per row or
// binding, in the report's own order.
func writeQUADReport(b *strings.Builder, label string, r *quad.Report) {
	fmt.Fprintf(b, "== QUAD %s: %d kernels, %d bindings\n", label, len(r.Kernels), len(r.Bindings))
	for _, k := range r.Kernels {
		fmt.Fprintf(b, "kernel %s in=%d in_unma=%d out=%d out_unma=%d\n", k.Name, k.In, k.InUnMA, k.Out, k.OutUnMA)
	}
	for _, e := range r.Bindings {
		fmt.Fprintf(b, "binding %q -> %q %d\n", e.Producer, e.Consumer, e.Bytes)
	}
}

// quadTables renders the pinned artifacts of one study.
func quadTables(t *testing.T, s *study.Study) (tables, dot string) {
	t.Helper()
	excl, me, err := s.QUAD(false)
	if err != nil {
		t.Fatalf("QUAD excl: %v", err)
	}
	incl, mi, err := s.QUAD(true)
	if err != nil {
		t.Fatalf("QUAD incl: %v", err)
	}
	base, instr, err := s.InstrumentedFlat()
	if err != nil {
		t.Fatalf("instrumented flat: %v", err)
	}
	var b strings.Builder
	b.WriteString("== Table II\n")
	b.WriteString(study.RenderTableII(excl, incl))
	fmt.Fprintf(&b, "== QUAD overhead: excl=%d incl=%d\n", me.Overhead, mi.Overhead)
	writeQUADReport(&b, "excl", excl)
	writeQUADReport(&b, "incl", incl)
	b.WriteString("== Table III\n")
	b.WriteString(study.RenderTableIII(base, instr))
	return b.String(), incl.QDUGraphDOT(1)
}

// TestGoldenQUADTablesSmall pins Table II, the full QUAD reports, their
// modelled analysis overhead, Table III and the QDU graph byte for byte.
func TestGoldenQUADTablesSmall(t *testing.T) {
	tables, dot := quadTables(t, getStudy(t))
	for _, g := range []struct{ file, got string }{
		{"testdata/golden_tables_small.txt", tables},
		{"testdata/golden_qdu_small.dot", dot},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", g.file, g.got, want)
		}
	}
}
