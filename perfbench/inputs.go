package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cca"
	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/sim"
)

// Input roles: an op input is processed by every measured op; a library
// input is only read by the workload's set-up (paper_cold's classifier
// reference library).
const (
	roleOp      = "op"
	roleLibrary = "library"
)

// input is one simulated capture of a workload, as recorded in the manifest.
type input struct {
	File string `json:"file"`
	Role string `json:"role"`
	// CCA is the ground-truth algorithm that produced the capture.
	CCA string `json:"cca"`
	// DSL is the sub-DSL a synthesis op searches (expr.DSLHint of CCA).
	DSL string `json:"dsl,omitempty"`
	// Key is the classifier configuration key of the capture's network.
	Key string `json:"key"`

	cfg sim.Config
}

// manifest lists a generated input set. It is written last, so an input
// directory without one is incomplete.
type manifest struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Inputs   []input `json:"inputs"`
}

const manifestName = "manifest.json"

// workloads lists the benchmark's workloads; README.md says why each exists.
var workloads = []string{"paper_cold", "batch_warm"}

// quick is the scale every workload takes its network noise, trace
// length, search budget and segmentation from.
var quick = experiments.QuickScale()

// specs expands a workload and seed into its simulator scenarios. The
// network grid is fixed per workload; the seed only drives the simulator's
// randomness (jitter, random loss), so every seed exercises the same
// mix of conditions.
func specs(workload string, seed int64) ([]input, error) {
	mk := func(role, name string, dur, rtt time.Duration, bw, loss float64, simSeed int64) input {
		return input{
			File: fmt.Sprintf("%s-%s-rtt%dms-bw%.0fkbps-loss%g-s%d.pcap", role, name, rtt.Milliseconds(), bw*8/1e3, loss, simSeed),
			Role: role,
			CCA:  name,
			DSL:  expr.DSLHint(name),
			Key:  classify.ConfigKey(int(rtt/time.Millisecond), bw),
			cfg: sim.Config{
				CCA: name, Bandwidth: bw, RTT: rtt, Duration: dur,
				Jitter: quick.Jitter, LossRate: loss, Seed: simSeed,
			},
		}
	}
	base := seed * 10000
	var out []input
	switch workload {
	case "paper_cold":
		// Table 2's reno, vegas and bbr rows on the quick testbed grid, two
		// captures per grid point. The classifier's reference library has
		// every kernel CCA under each grid point's configuration key, two
		// captures each (Calibrate needs two per label and key), with
		// seeds disjoint from the op captures'.
		for _, name := range []string{"reno", "vegas", "bbr"} {
			for rep := int64(0); rep < 2; rep++ {
				for i, rtt := range quick.RTTs {
					for j, bw := range quick.Bandwidths {
						out = append(out, mk(roleOp, name, quick.Duration, rtt, bw, quick.LossRate, base+100*rep+10*int64(i)+int64(j)))
					}
				}
			}
		}
		for _, name := range cca.KernelNames() {
			for i, rtt := range quick.RTTs {
				for j, bw := range quick.Bandwidths {
					for rep := int64(0); rep < 2; rep++ {
						out = append(out, mk(roleLibrary, name, quick.Duration, rtt, bw, quick.LossRate, base+5000+100*rep+10*int64(i)+int64(j)))
					}
				}
			}
		}
	case "batch_warm":
		// Loss-based Reno-DSL algorithms over RTT x bandwidth x loss rate,
		// so segment count and length vary between traces.
		for _, name := range []string{"reno", "westwood", "scalable"} {
			for i, rtt := range []time.Duration{30 * time.Millisecond, 80 * time.Millisecond} {
				for j, bw := range []float64{8e6 / 8, 12e6 / 8} {
					for k, loss := range []float64{0.0005, 0.002} {
						out = append(out, mk(roleOp, name, quick.Duration, rtt, bw, loss, base+100*int64(i)+10*int64(j)+int64(k)))
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	return out, nil
}

// cmdGen simulates a workload's captures and writes them as pcap files
// plus a manifest. It runs in its own process so that neither its time
// nor its memory is charged to the measured run.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	dir := fs.String("dir", "", "output directory (created)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("gen: -dir is required")
	}
	ins, err := specs(*workload, *seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	// Simulations are independent; run them on every core.
	jobs := make(chan input)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range jobs {
				if err := writeCapture(filepath.Join(*dir, in.File), in.cfg); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, in := range ins {
		jobs <- in
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	raw, err := json.MarshalIndent(manifest{Workload: *workload, Seed: *seed, Inputs: ins}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*dir, manifestName), raw, 0o644)
}

// writeCapture simulates one scenario and writes its sender-side capture.
func writeCapture(path string, cfg sim.Config) error {
	res, err := sim.Run(cfg)
	if err != nil {
		return fmt.Errorf("simulating %s: %w", filepath.Base(path), err)
	}
	raw, err := res.WritePcap()
	if err != nil {
		return fmt.Errorf("encoding %s: %w", filepath.Base(path), err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// readManifest loads a generated input set.
func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestName, err)
	}
	return &m, nil
}
