// Command roundbench is the repository's end-to-end benchmark. It drives
// the real engine through its public entry points (sim.Resolve →
// Config.Params → protocol.NewEngine → Engine.RunRound) on closed-loop
// workloads, checks every round, and prints one JSON result as its last
// line.
//
//	roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs an untraced and a traced segment and reports the
// per-layer metrics of the traced one. README.md lists the workloads and
// metrics; run.sh builds and runs it from the root of a checkout.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cycledger/internal/protocol"
)

const (
	setupReps  = 3 // engines built per untraced run; setup_s is their median
	warmRounds = 1 // rounds each engine runs before timing starts
)

// digestDir keeps round digests between runs, relative to the checkout root.
var digestDir = filepath.Join(".bench_build", "roundbench", "digests")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments and runs one benchmark. It returns 0 on a
// correct run, 1 when a round or a check failed (the result line then says
// correct: false), and 2 on a usage error, which prints no result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; becomes Params.Seed (0 and negatives shift down by one)")
	seconds := fs.Float64("seconds", 10, "how long the timed rounds run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, stateDir: digestDir, out: stdout,
		metrics: map[string]metric{}}
	runErr := b.run(*trace == 1)
	if runErr != nil {
		fmt.Fprintln(stderr, "roundbench:", runErr)
		b.attempted = max(b.attempted, 1)
		b.failed = b.attempted
	}
	res, err := json.Marshal(result{Correct: runErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(res))
	if runErr != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, a seed and the metrics gathered.
type bench struct {
	w        workload
	seed     int64
	seconds  float64
	stateDir string
	out      io.Writer

	attempted int // rounds run, warm-up included
	failed    int
	metrics   map[string]metric
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(b.out, "metric %-34s %14.6g %s\n", name, value, unit)
}

func (b *bench) run(traced bool) error {
	p, err := b.w.params(b.seed, parallelism)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "roundbench workload=%s seed=%d params.seed=%d n=%d m=%d c=%d lambda=%d ref=%d tx/committee=%d parallelism=%d trace=%t\n",
		b.w.name, b.seed, p.Seed, p.TotalNodes(), p.M, p.C, p.Lambda, p.RefSize, p.TxPerCommittee, p.Parallelism, traced)
	refBefore := hostRef()
	if traced {
		err = b.traced(p)
	} else {
		err = b.untraced(p)
	}
	refAfter := hostRef()
	fmt.Fprintf(b.out, "host.ref_s before=%.4f after=%.4f\n", refBefore, refAfter)
	if traced {
		b.set("host.ref_s", (refBefore+refAfter)/2, "s")
	}
	return err
}

// session builds one engine, counting its warm-up rounds as attempted.
func (b *bench) session(p protocol.Params, hooks *protocol.Hooks) (*session, float64, error) {
	b.attempted += warmRounds
	return newSession(p, warmRounds, hooks)
}

// timedLoop runs rounds until the time budget is spent and at least min
// rounds are done. each runs one round. Callers collect the garbage of
// set-up first, so that timed rounds do not pay for it.
func (b *bench) timedLoop(s *session, budget float64, min int, each func() error) error {
	start := time.Now()
	for len(s.walls) < min || time.Since(start).Seconds() < budget {
		b.attempted++
		if err := each(); err != nil {
			return err
		}
	}
	return nil
}

// untraced measures the end-to-end metrics. It builds setupReps engines,
// each checked against the first for identical warm-up rounds, and times
// rounds on the last one.
func (b *bench) untraced(p protocol.Params) error {
	var setups []float64
	var s *session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.finish(); err != nil {
				return err
			}
			s.eng = nil
			runtime.GC() // each set-up starts from a heap without the last engine
		}
		next, setup, err := b.session(p, nil)
		if err != nil {
			return err
		}
		if s != nil {
			if i := firstMismatch(s.digests, next.digests); i >= 0 {
				next.eng.Close()
				return fmt.Errorf("set-up %d: warm-up round %d differs from the first engine's", len(setups)+1, i+1)
			}
		}
		s = next
		setups = append(setups, setup)
	}
	runtime.GC()
	err := b.timedLoop(s, b.seconds, b.w.window, s.timedRound)
	if err == nil {
		err = s.finish()
	} else {
		s.eng.Close()
	}
	if err != nil {
		return err
	}
	if err := b.checkStored(s.digests); err != nil {
		return err
	}
	b.printRounds(s)

	win := s.timed()[:b.w.window]
	var committed, rejected, ticks, bytes float64
	for _, r := range win {
		committed += float64(r.Throughput())
		rejected += float64(r.Rejected)
		ticks += float64(r.Duration)
		bytes += float64(r.Bytes)
	}
	var allCommitted float64
	for _, r := range s.timed() {
		allCommitted += float64(r.Throughput())
	}
	n := float64(len(win))
	fmt.Fprintf(b.out, "timed rounds: %d (deterministic window: first %d); set-ups: %d\n",
		len(s.walls), len(win), len(setups))
	b.set("setup_s", median(setups), "s")
	b.set("round_wall_s.p50", median(s.walls), "s")
	b.set("committed_tx_per_s", ratio(allCommitted, sum(s.walls)), "tx/s")
	b.set("cpu_s_per_round", sum(s.cpus)/float64(len(s.cpus)), "s")
	b.set("max_rss_mb", maxRSSMB(), "MB")
	b.set("sim_ticks_per_round", ticks/n, "ticks")
	b.set("tx_per_round", committed/n, "tx")
	b.set("tx_commit_ratio", ratio(committed, committed+rejected), "ratio")
	b.set("sim_bytes_per_tx", ratio(bytes, committed), "B/tx")
	return nil
}

// traced runs an untraced segment for half the time budget, then a traced
// engine for the same number of rounds, and reports the per-layer metrics
// of the traced one. The two segments must produce identical rounds.
func (b *bench) traced(p protocol.Params) error {
	ref, _, err := b.session(p, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := b.timedLoop(ref, b.seconds/2, b.w.window, ref.timedRound); err != nil {
		ref.eng.Close()
		return err
	}
	if err := ref.finish(); err != nil {
		return err
	}

	tr := newTracer()
	tp := p
	tp.Transport = tr.factory
	s, _, err := b.session(tp, tr.hooks())
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		s.eng.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err = b.timedLoop(s, 0, len(ref.walls), func() error { return tr.run(s) })
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err == nil {
		err = s.finish()
	} else {
		s.eng.Close()
	}
	if err != nil {
		return err
	}
	if i := firstMismatch(ref.digests, s.digests); i >= 0 {
		return fmt.Errorf("traced round %d differs from the untraced run", s.reports[i].Round)
	}
	if err := b.checkStored(s.digests); err != nil {
		return err
	}
	b.printRounds(s)

	rounds := float64(len(s.walls))
	perRound := func(x float64) float64 { return x / rounds }
	fmt.Fprintf(b.out, "traced rounds: %d\n", len(s.walls))
	for _, st := range stages {
		b.set("protocol.stage."+st+".wall_s", perRound(tr.wall[st].Seconds()), "s")
		b.set("protocol.stage."+st+".offnet_s", perRound(tr.offnet[st].Seconds()), "s")
	}
	var recoveries, timeouts, msgs, dropped, late float64
	phaseMsgs := map[string]float64{}
	for _, r := range s.timed() {
		recoveries += float64(len(r.Recoveries))
		timeouts += float64(len(r.Timeouts))
		msgs += float64(r.Messages)
		dropped += float64(r.Dropped)
		late += float64(r.Late)
		for ph, c := range r.PhaseTraffic {
			phaseMsgs[ph] += float64(c.Messages)
		}
	}
	b.set("protocol.recoveries_per_round", perRound(recoveries), "count")
	b.set("protocol.timeouts_per_round", perRound(timeouts), "count")
	b.set("simnet.drain_s_per_round", perRound(tr.drain.Seconds()), "s")
	b.set("simnet.events_per_round", perRound(float64(tr.events)), "count")
	b.set("simnet.events_per_drain_s", ratio(float64(tr.events), tr.drain.Seconds()), "1/s")
	b.set("simnet.msgs_per_round", perRound(msgs), "count")
	for _, ph := range stages[1:] {
		b.set("simnet.msgs."+ph, perRound(phaseMsgs[ph]), "count")
	}
	b.set("simnet.dropped_per_round", perRound(dropped), "count")
	b.set("simnet.late_per_round", perRound(late), "count")

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "cpu profile: %d samples\n", samples)
	for _, l := range cpuLayers {
		b.set("cpu."+l, shares[l], "%")
	}
	b.set("runtime.alloc_mb_per_round", perRound(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)), "MB")
	b.set("runtime.allocs_per_round", perRound(float64(ms1.Mallocs-ms0.Mallocs)), "count")
	b.set("runtime.gc_cycles_per_round", perRound(float64(ms1.NumGC-ms0.NumGC)), "count")
	b.set("trace.overhead", ratio(median(s.walls), median(ref.walls))-1, "ratio")
	return nil
}

// printRounds prints each timed round's digest and its wall and CPU time.
func (b *bench) printRounds(s *session) {
	for i, r := range s.timed() {
		fmt.Fprintf(b.out, "digest %s seed=%d round=%d %s\n", b.w.name, b.seed, r.Round, s.digests[s.warm+i])
	}
	for i, r := range s.timed() {
		fmt.Fprintf(b.out, "round %d wall_s=%.4f cpu_s=%.4f\n", r.Round, s.walls[i], s.cpus[i])
	}
}

// checkStored compares a run's round digests with those an earlier run
// of the same binary and seed stored, over the rounds both ran, then
// stores the longer sequence.
func (b *bench) checkStored(digests []string) error {
	id, err := binaryID()
	if err != nil {
		return err
	}
	path := filepath.Join(b.stateDir, fmt.Sprintf("%s.seed%d.%s", b.w.name, b.seed, id))
	if old, err := os.ReadFile(path); err == nil {
		prev := strings.Fields(string(old))
		if i := firstMismatch(prev, digests); i >= 0 {
			return fmt.Errorf("round %d differs from an earlier run of this binary and seed", i+1)
		}
		if len(prev) >= len(digests) {
			return nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("reading stored digests: %w", err)
	}
	if err := os.MkdirAll(b.stateDir, 0o755); err != nil {
		return fmt.Errorf("storing digests: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(digests, "\n")+"\n"), 0o644); err != nil {
		return fmt.Errorf("storing digests: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storing digests: %w", err)
	}
	return nil
}

// binaryID identifies the running binary by a hash of its file, so stored
// digests are only compared between runs of the same code.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6]), nil
}
