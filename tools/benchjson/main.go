// Command benchjson runs the repo's round/sweep benchmarks and records the
// measurements as a structured JSON document (by convention
// BENCH_round.json at the repo root), so every PR leaves a comparable
// performance trajectory behind. It shells out to `go test -bench`, parses
// the output with internal/perfbench, and optionally folds in a baseline
// document to compute per-benchmark ns/op, B/op, and allocs/op deltas.
//
//	go run ./tools/benchjson                                   # defaults
//	go run ./tools/benchjson -benchtime 5x -out BENCH_round.json
//	go run ./tools/benchjson -baseline BENCH_prev.json -note "PR 5"
//	go run ./tools/benchjson -bench 'BenchmarkRoundHotPath$' -benchtime 1x
//	go run ./tools/benchjson -input ci-bench.log -out BENCH_round.json
//	go run ./tools/benchjson -input ci-bench.log -check BENCH_round.json
//
// With -input a previously captured transcript is parsed instead of
// running go test (useful for converting CI logs or archived runs). The
// benchmark output is echoed to stderr while it runs; only the JSON
// document goes to -out (or stdout with -out -).
//
// With -check the run additionally enforces the EXPERIMENTS.md
// no-regression contract against the given committed document: the tool
// exits 1 when any benchmark's allocs/op or ticks/round exceeds the
// committed value by more than -check-tol, when no benchmark names match
// at all (a renamed bench must not silently disable the gate), and when
// a committed benchmark cell is absent from the run — unless its name
// matches -check-allow-missing, the opt-out for env-gated cells such as
// the CYCLEDGER_SCALE_BIG 50×-scale cell. A goos/goarch/cpu difference
// between the committed document and the current machine is reported as
// a warning (the allocation and ticks gates are hardware-independent,
// but ns/op comparisons across hosts are noise). ns/op is never gated
// (CI hardware is noise); the tolerance
// absorbs the allocation jitter of short -benchtime runs and the
// seed-averaging difference between CI's 1x smoke runs and the committed
// 3x measurements. The committed document is read before anything is
// written, and `-check` without an explicit `-out` is gate-only (writes
// nothing), so checking against BENCH_round.json never clobbers it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"cycledger/internal/perfbench"
)

func main() {
	bench := flag.String("bench", "BenchmarkRoundHotPath$|BenchmarkPipelinedThroughput|BenchmarkScaleCeiling|BenchmarkPaperScaleRound", "benchmark regex passed to go test -bench")
	pkg := flag.String("pkg", ".", "package pattern holding the benchmarks")
	// The default matches the committed BENCH_round.json: simulation
	// metrics (tx/round, ticks/round) only compare across equal -benchtime
	// (see EXPERIMENTS.md, "Profiling & benchmarking").
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value (e.g. 3x, 1s)")
	count := flag.Int("count", 1, "go test -count value (last run wins per benchmark)")
	timeout := flag.Duration("timeout", 20*time.Minute, "go test -timeout")
	out := flag.String("out", "BENCH_round.json", "output path for the JSON document (- for stdout)")
	baseline := flag.String("baseline", "", "prior document to compute deltas against (optional)")
	note := flag.String("note", "", "free-form note stored in the document")
	input := flag.String("input", "", "parse this saved go-test transcript instead of running benchmarks")
	check := flag.String("check", "", "fail (exit 1) when allocs/op or ticks/round regress vs this committed document")
	checkTol := flag.Float64("check-tol", 0.10, "relative tolerance for -check comparisons (0.10 = 10%)")
	checkAllowMissing := flag.String("check-allow-missing", "", "regex of committed benchmark names -check tolerates being absent from the run (e.g. env-gated scale cells)")
	flag.Parse()

	var (
		hdr     perfbench.Header
		results []perfbench.Result
		command string
	)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatalf("%v", err)
		}
		var perr error
		hdr, results, perr = perfbench.Parse(f)
		f.Close()
		if perr != nil {
			fatalf("parsing %s: %v", *input, perr)
		}
		command = "(parsed from " + *input + ")"
	} else {
		args := []string{
			"test", "-run", "^$",
			"-bench", *bench,
			"-benchtime", *benchtime,
			"-count", strconv.Itoa(*count),
			"-benchmem",
			"-timeout", timeout.String(),
			*pkg,
		}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fatalf("%v", err)
		}
		if err := cmd.Start(); err != nil {
			fatalf("starting go test: %v", err)
		}
		// Echo the transcript to stderr while parsing it, so CI logs keep
		// the raw numbers alongside the artifact.
		var perr error
		hdr, results, perr = perfbench.Parse(io.TeeReader(stdout, os.Stderr))
		if err := cmd.Wait(); err != nil {
			fatalf("go test: %v", err)
		}
		if perr != nil {
			fatalf("parsing benchmark output: %v", perr)
		}
		command = "go " + strings.Join(args, " ")
	}
	if len(results) == 0 {
		fatalf("no benchmark lines found (regex %q, pkg %s)", *bench, *pkg)
	}

	doc := perfbench.NewDocument(hdr, results)
	doc.Command = command
	doc.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	doc.Note = *note
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		base, err := perfbench.ReadJSON(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		doc.ApplyBaseline(base)
	}

	// The check document is read BEFORE anything is written: -out defaults
	// to BENCH_round.json, so a bare `-check BENCH_round.json` run would
	// otherwise clobber the committed contract and then compare the fresh
	// run against itself. When -check is given without an explicit -out,
	// the run is gate-only and writes nothing.
	var committed *perfbench.Document
	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fatalf("%v", err)
		}
		c, err := perfbench.ReadJSON(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		committed = &c
	}
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	if *check == "" || outSet {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := perfbench.WriteJSON(w, doc); err != nil {
			fatalf("writing document: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) → %s\n", len(results), *out)
	} else {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s), gate-only (-check without -out writes no document)\n", len(results))
	}

	if committed != nil {
		// Cross-host timing is noise: when the committed document was
		// generated on different hardware, say so — the allocs/ticks gates
		// below still hold (they are hardware-independent), but any ns/op
		// comparison a human makes against the committed file is not.
		for _, w := range perfbench.HostMismatch(doc.Header, committed.Header) {
			fmt.Fprintf(os.Stderr, "benchjson: warning: committed %s was measured on a different host — %s\n", *check, w)
		}
		// A committed cell that vanished from the run is a gate hole, not a
		// pass: without this, dropping (or forgetting to enable) an
		// env-gated scale cell would silently stop covering it. Expected
		// absences are opted into per name via -check-allow-missing.
		var allowRE *regexp.Regexp
		if *checkAllowMissing != "" {
			var err error
			if allowRE, err = regexp.Compile(*checkAllowMissing); err != nil {
				fatalf("bad -check-allow-missing regex: %v", err)
			}
		}
		var gone []string
		for _, name := range perfbench.Missing(doc, *committed) {
			if allowRE != nil && allowRE.MatchString(name) {
				fmt.Fprintf(os.Stderr, "benchjson: committed cell %s absent from this run (allowed by -check-allow-missing)\n", name)
				continue
			}
			gone = append(gone, name)
		}
		if len(gone) > 0 {
			fatalf("-check %s: committed benchmark cell(s) missing from this run: %s — run them (the scale cells need CYCLEDGER_SCALE_BIG=1) or allow them explicitly with -check-allow-missing",
				*check, strings.Join(gone, ", "))
		}
		regs, compared := perfbench.Regressions(doc, *committed, *checkTol)
		if compared == 0 {
			// A gate that compares nothing is a broken gate, not a pass: a
			// benchmark rename or log-format drift must fail loudly so the
			// committed document gets regenerated alongside it.
			fatalf("-check %s matched no benchmark names (run has %d, baseline has %d) — regenerate the committed document",
				*check, len(doc.Benchmarks), len(committed.Benchmarks))
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: regression vs %s (EXPERIMENTS.md no-regression contract):\n", *check)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regression vs %s (%d benchmark(s) compared, tolerance %.0f%%)\n",
			*check, compared, *checkTol*100)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "benchjson: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}
