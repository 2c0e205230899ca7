// Command cycsim runs a full CycLedger simulation through the public sim
// facade and prints per-round reports as they complete: throughput, fees,
// recoveries, traffic, and the final reputation leaderboard.
//
// Runs are assembled in three layers, each overriding the previous:
// a registered scenario (-scenario), a JSON config file (-config), and
// individual flags.
//
//	go run ./cmd/cycsim -m 8 -c 20 -rounds 5 -cross 0.33
//	go run ./cmd/cycsim -scenario leader-fault -json
//	go run ./cmd/cycsim -scenario dos-prescreen -rounds 5
//	go run ./cmd/cycsim -config run.json -seed 7
//	go run ./cmd/cycsim -list-scenarios
//
// With -sweep (repeatable) or -sweep-file the resolved configuration
// becomes the base of a parameter grid executed on a parallel worker
// pool (sim/sweep), aggregated over -seeds replicates per point:
//
//	go run ./cmd/cycsim -sweep "m=2,4,8,16" -seeds 5 -sweep-out csv
//	go run ./cmd/cycsim -scenario cross-heavy -sweep "pipelined=false,true" -seeds 3
//	go run ./cmd/cycsim -sweep-file grid.json -workers 8 -sweep-out json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"cycledger/sim"
	"cycledger/sim/sweep"
)

func main() {
	scenario := flag.String("scenario", "", "registered scenario to run (see -list-scenarios)")
	configPath := flag.String("config", "", "JSON config file (overlaid on the scenario)")
	jsonOut := flag.Bool("json", false, "emit the run as a JSON document instead of text")
	list := flag.Bool("list-scenarios", false, "list registered scenarios and exit")

	// Declared flag defaults mirror the default config so -h tells the
	// truth; only flags explicitly set on the command line (flag.Visit)
	// override the scenario/config layers.
	def := sim.DefaultConfig()
	m := flag.Int("m", def.M, "number of committees")
	c := flag.Int("c", def.C, "committee size")
	lambda := flag.Int("lambda", def.Lambda, "partial set size")
	ref := flag.Int("ref", def.RefSize, "referee committee size")
	rounds := flag.Int("rounds", def.Rounds, "rounds to simulate")
	txs := flag.Int("tx", def.TxPerCommittee, "transactions offered per committee per round")
	cross := flag.Float64("cross", def.CrossFrac, "cross-shard payment fraction")
	invalid := flag.Float64("invalid", def.InvalidFrac, "invalid transaction fraction")
	malicious := flag.Float64("malicious", def.MaliciousFrac, "byzantine node fraction (-behavior defaults to invert when this is set)")
	behavior := flag.String("behavior", def.Behavior, "byzantine behavior: honest|invert|lazy|yes|offline|equivocate|forge|conceal|censor|suppress-score (comma-composable)")
	corruptLeaders := flag.Bool("corrupt-leaders", def.CorruptLeaders, "spend the corruption budget on leader seats first")
	noRecovery := flag.Bool("no-recovery", def.DisableRecovery, "disable leader re-selection (RapidChain-style baseline)")
	prescreen := flag.Bool("prescreen", def.PreScreenCross, "enable §VIII-A cross-shard pre-screening")
	parallelBlockGen := flag.Bool("parallel-blockgen", def.ParallelBlockGen, "enable §VIII-B parallel block generation")
	seed := flag.Int64("seed", def.Seed, "simulation seed (non-zero)")
	par := flag.Int("parallel", def.Parallelism, "simnet worker pool size (0 = GOMAXPROCS)")
	pipelined := flag.Bool("pipelined", def.Pipelined, "run rounds as a concurrent stage pipeline (§IV overlap)")
	scheme := flag.String("scheme", def.Scheme, "signature scheme: hash|ed25519")
	top := flag.Int("top", 5, "reputation leaderboard size")

	var sweepAxes []sweep.Axis
	flag.Func("sweep", "sweep axis `field=v1,v2,...` (repeatable; enables sweep mode)", func(s string) error {
		ax, err := sweep.ParseAxis(s)
		if err != nil {
			return err
		}
		sweepAxes = append(sweepAxes, ax)
		return nil
	})
	sweepFile := flag.String("sweep-file", "", "JSON sweep grid file {base, axes, seeds}; -sweep axes append to it")
	seeds := flag.Int("seeds", 1, "sweep replicates per point (derived seeds; overrides the grid file's)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	sweepOut := flag.String("sweep-out", "table", "sweep output format: table|markdown|csv|json")
	sweepMetrics := flag.String("sweep-metrics",
		"tx_per_round,rejected_per_round,recoveries_per_round,msgs_per_round,ticks_per_round",
		"comma-separated sweep metrics for table/markdown/csv output (empty = all; json always carries all)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to `file`")
	flag.Parse()

	// Profiling hooks: the CPU profile brackets the whole run (including
	// sweep workers); the heap profile is captured after the run settles so
	// it shows steady-state retention, not transient garbage. stopProfiles
	// also runs on the fatalf path, so an interrupted run still leaves
	// usable profiles behind. See EXPERIMENTS.md, "Profiling & benchmarking".
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		cpuProfiling = true
	}
	memProfilePath = *memprofile
	defer stopProfiles()

	if *list {
		for _, s := range sim.List() {
			fmt.Printf("%-18s %s\n%18s reproduces: %s\n", s.Name, s.Description, "", s.Paper)
		}
		return
	}

	var opts []sim.Option
	if *scenario != "" {
		scen, ok := sim.Lookup(*scenario)
		if !ok {
			fatalf("unknown scenario %q (try -list-scenarios)", *scenario)
		}
		opts = append(opts, scen.Options...)
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, sim.FromJSON(data))
	}
	cfg, err := sim.Resolve(opts...)
	if err != nil {
		fatalf("%v", err)
	}

	// Individual flags override the scenario/config layers, but only the
	// flags actually given on the command line.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	applyIf := func(name string, apply func()) {
		if set[name] {
			apply()
		}
	}
	applyIf("m", func() { cfg.M = *m })
	applyIf("c", func() { cfg.C = *c })
	applyIf("lambda", func() { cfg.Lambda = *lambda })
	applyIf("ref", func() { cfg.RefSize = *ref })
	applyIf("rounds", func() { cfg.Rounds = *rounds })
	applyIf("tx", func() { cfg.TxPerCommittee = *txs })
	applyIf("cross", func() { cfg.CrossFrac = *cross })
	applyIf("invalid", func() { cfg.InvalidFrac = *invalid })
	applyIf("malicious", func() { cfg.MaliciousFrac = *malicious })
	applyIf("behavior", func() { cfg.Behavior = *behavior })
	applyIf("corrupt-leaders", func() { cfg.CorruptLeaders = *corruptLeaders })
	applyIf("no-recovery", func() { cfg.DisableRecovery = *noRecovery })
	applyIf("prescreen", func() { cfg.PreScreenCross = *prescreen })
	applyIf("parallel-blockgen", func() { cfg.ParallelBlockGen = *parallelBlockGen })
	applyIf("seed", func() { cfg.Seed = *seed })
	applyIf("parallel", func() { cfg.Parallelism = *par })
	applyIf("pipelined", func() { cfg.Pipelined = *pipelined })
	applyIf("scheme", func() { cfg.Scheme = *scheme })
	// A command-line -malicious without -behavior keeps the old CLI's
	// default of vote inversion. The fallback is scoped to the flag layer:
	// a scenario or config file that sets a positive fraction without a
	// behavior is passed through untouched, so validation rejects it as a
	// silent no-op adversary instead of inventing one.
	if set["malicious"] && !set["behavior"] && cfg.Behavior == "" {
		cfg.Behavior = "invert"
	}

	// First Ctrl-C cancels the run (checked between rounds, so partial
	// results still print); unregistering on cancellation restores the
	// default handler, letting a second Ctrl-C kill a round in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	if len(sweepAxes) > 0 || *sweepFile != "" {
		runSweep(ctx, cfg, sweepCLI{
			axes:     sweepAxes,
			file:     *sweepFile,
			seeds:    *seeds,
			seedsSet: set["seeds"],
			workers:  *workers,
			format:   *sweepOut,
			metrics:  *sweepMetrics,
		})
		return
	}

	if *jsonOut {
		runJSON(ctx, cfg, *top)
		return
	}
	runText(ctx, cfg, *top)
}

// sweepCLI carries the sweep-mode flags into runSweep.
type sweepCLI struct {
	axes     []sweep.Axis
	file     string
	seeds    int
	seedsSet bool
	workers  int
	format   string
	metrics  string
}

// runSweep assembles the grid (the resolved single-run config is its
// base; a -sweep-file overlays and -sweep axes append), executes it on
// the worker pool with a progress line on stderr, and writes the
// aggregate in the requested format. Like single runs, an interrupted
// sweep still writes the points whose replicates completed.
func runSweep(ctx context.Context, cfg sim.Config, cli sweepCLI) {
	g := sweep.Grid{Base: cfg, Seeds: cli.seeds}
	if cli.file != "" {
		data, err := os.ReadFile(cli.file)
		if err != nil {
			fatalf("%v", err)
		}
		g, err = sweep.ParseGrid(data, cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if cli.seedsSet {
			g.Seeds = cli.seeds
		}
	}
	g.Axes = append(g.Axes, cli.axes...)

	// Reject output-shaping typos before the sweep runs, not after: a bad
	// -sweep-out or -sweep-metrics must not discard an hour of cells.
	switch cli.format {
	case "table", "markdown", "csv", "json":
	default:
		fatalf("unknown sweep output format %q (want table|markdown|csv|json)", cli.format)
	}
	var metrics []string
	for _, name := range strings.Split(cli.metrics, ",") {
		if name = strings.TrimSpace(name); name != "" {
			metrics = append(metrics, name)
		}
	}
	if err := sweep.ValidateMetrics(metrics...); err != nil {
		fatalf("%v", err)
	}

	runner := sweep.Runner{
		Workers: cli.workers,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
		},
	}
	res, runErr := runner.Run(ctx, g)
	if res == nil {
		fatalf("%v", runErr)
	}
	fmt.Fprintln(os.Stderr)

	var err error
	switch cli.format {
	case "csv":
		err = sweep.WriteCSV(os.Stdout, res, metrics...)
	case "json":
		err = sweep.WriteJSON(os.Stdout, res)
	case "markdown":
		err = printLines(sweep.Markdown(res, metrics...))
	default: // "table"; the format set was validated before the run
		err = printLines(sweep.Table(res, metrics...))
	}
	if err != nil {
		fatalf("%v", err)
	}
	if runErr != nil {
		fatalf("%v (partial results above)", runErr)
	}
}

func printLines(lines []string, err error) error {
	if err != nil {
		return err
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	return nil
}

func runText(ctx context.Context, cfg sim.Config, top int) {
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		fatalf("%v", err)
	}
	defer s.Close()
	fmt.Printf("cycsim: n=%d nodes, m=%d committees of c=%d (λ=%d), |C_R|=%d, %d rounds\n\n",
		cfg.TotalNodes(), cfg.M, cfg.C, cfg.Lambda, cfg.RefSize, cfg.Rounds)

	var runErr error
	for r, err := range s.Rounds(ctx) {
		if err != nil {
			runErr = err
			break
		}
		fmt.Printf("round %d: tx=%d (intra %d, cross %d, rejected %d)  fees=%d  msgs=%d  bytes=%d  Δt=%d\n",
			r.Round, r.Throughput(), r.IntraIncluded, r.CrossIncluded, r.Rejected,
			r.Fees, r.Messages, r.Bytes, r.Duration)
		if r.Screened > 0 {
			fmt.Printf("  pre-screened: %d cross-shard txs dropped before packaging\n", r.Screened)
		}
		for _, rec := range r.Recoveries {
			fmt.Printf("  recovery: committee %d evicted node %d (%s) → node %d\n",
				rec.Committee, rec.Evicted, rec.Kind, rec.Successor)
		}
	}

	// An interrupted run still reports the rounds that did complete.
	fmt.Printf("\nreputation leaderboard (top %d):\n", top)
	for i, e := range leaderboard(s, top) {
		fmt.Printf("  %2d. %-12s %8.3f\n", i+1, e.Name, e.Reputation)
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

// jsonRun is the -json output document. Error is set when the run was
// interrupted; Rounds then holds the rounds that completed before it.
type jsonRun struct {
	Config      sim.Config         `json:"config"`
	Rounds      []*sim.RoundReport `json:"rounds"`
	Leaderboard []repEntry         `json:"leaderboard"`
	Error       string             `json:"error,omitempty"`
}

func runJSON(ctx context.Context, cfg sim.Config, top int) {
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		fatalf("%v", err)
	}
	defer s.Close()
	reports, runErr := s.Run(ctx)
	if reports == nil {
		reports = []*sim.RoundReport{} // keep "rounds" an array even when nothing completed
	}
	doc := jsonRun{Config: cfg, Rounds: reports, Leaderboard: leaderboard(s, top)}
	if runErr != nil {
		doc.Error = runErr.Error()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

type repEntry struct {
	Name       string  `json:"name"`
	Reputation float64 `json:"reputation"`
}

func leaderboard(s *sim.Sim, top int) []repEntry {
	snap := s.Reputation().Snapshot()
	entries := make([]repEntry, 0, len(snap))
	for name, rep := range snap {
		entries = append(entries, repEntry{name, rep})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Reputation != entries[j].Reputation {
			return entries[i].Reputation > entries[j].Reputation
		}
		return entries[i].Name < entries[j].Name
	})
	if top < 0 {
		top = 0
	}
	if top < len(entries) {
		entries = entries[:top]
	}
	return entries
}

// Profiling state shared between main's setup and the fatalf exit path.
var (
	cpuProfiling   bool
	memProfilePath string
)

// stopProfiles finalises any requested pprof outputs. It is idempotent so
// both the deferred call in main and the fatalf path may run it.
func stopProfiles() {
	if cpuProfiling {
		pprof.StopCPUProfile()
		cpuProfiling = false
	}
	if memProfilePath != "" {
		path := memProfilePath
		memProfilePath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cycsim: "+err.Error())
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cycsim: "+err.Error())
		}
	}
}

func fatalf(format string, args ...any) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "cycsim: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}
