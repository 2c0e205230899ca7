package main

import (
	"fmt"

	"cycledger/internal/protocol"
	"cycledger/sim"
)

// parallelism is the simnet worker pool of every workload: the two vCPUs
// of the reference host, in one process.
const parallelism = 2

// A workload is one closed-loop configuration of the real engine. Every
// round offers M × TxPerCommittee transactions from the engine's seeded
// generator, and the next round starts when RunRound returns. README.md
// records why each one was chosen.
type workload struct {
	name string
	// window is the number of timed rounds every run completes, whatever
	// the host speed; each takes ~17 s on the reference host, inside a
	// 20 s run. The deterministic metrics are taken over this window, so
	// they repeat exactly for a seed.
	window int
	opts   []sim.Option
}

var workloads = []workload{
	{
		// The paper's λ/c ≈ 0.4 and O(c²) per-committee config and echo
		// traffic: VRF verification dominates, PoW is negligible.
		name:   "wide-committee",
		window: 6,
		opts: []sim.Option{
			sim.WithTopology(4, 48, 20, 30),
			sim.WithWorkload(100, 1.0/3, 0),
			sim.WithPowHardness(8),
		},
	},
	{
		// The scale-out axis m: inter-committee consensus, PoW, the PVSS
		// beacon and overlay ledger validation do the work.
		name:   "many-shards",
		window: 12,
		opts: []sim.Option{
			sim.WithTopology(16, 16, 3, 9),
			sim.WithWorkload(100, 0.8, 0),
			sim.WithPowHardness(4096),
			sim.WithParallelBlockGen(true),
		},
	},
	{
		// Every delivery takes simnet's fault-fate path; silence watchdogs
		// and the §V-D recovery run every round.
		name:   "faulted",
		window: 16,
		opts: []sim.Option{
			sim.WithTopology(8, 24, 6, 15),
			sim.WithWorkload(60, 1.0/3, 0),
			sim.WithPowHardness(8),
			sim.WithFaults(sim.FaultsConfig{
				Loss:     0.05,
				Adaptive: &sim.AdaptiveSpec{Budget: 2, CrashLeaders: true},
			}),
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// engineSeed maps the benchmark's seed argument to Params.Seed. The
// engine refuses seed 0, so 0 and the negative seeds shift down by one;
// positive seeds pass through unchanged.
func engineSeed(seed int64) int64 {
	if seed > 0 {
		return seed
	}
	return seed - 1
}

// params resolves the workload through the sim facade with the settings
// shared by every workload: the sequential stage schedule, the hash
// scheme and the default virtual delays.
func (w workload) params(seed int64, par int) (protocol.Params, error) {
	opts := append([]sim.Option{
		sim.WithScheme("hash"),
		sim.WithPipeline(false, par),
		sim.WithSeed(engineSeed(seed)),
	}, w.opts...)
	cfg, err := sim.Resolve(opts...)
	if err != nil {
		return protocol.Params{}, fmt.Errorf("resolving %s: %w", w.name, err)
	}
	p, err := cfg.Params()
	if err != nil {
		return protocol.Params{}, fmt.Errorf("params for %s: %w", w.name, err)
	}
	return p, nil
}
