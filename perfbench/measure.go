package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/wire"
)

// fingerprintCounters are the program's own work counters. For a fixed
// input set they must repeat exactly between rounds and between runs; a
// difference is program nondeterminism, not host noise.
var fingerprintCounters = []string{
	"enum.candidates", "core.handlers_scored", "dist.dtw_cells",
	"replay.instrs_executed", "dsl.progs_compiled",
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// phase accumulates one measured phase: whole rounds of ops, timed and
// charged CPU only while the workload works (output checks excluded).
//
// The end-to-end figures take each op input's best over the rounds: its
// least work time and its least CPU. On a shared host a slowdown only ever
// adds time, and it comes and goes, so the best of the repetitions spread
// over the run is the steadiest estimate of the program's own cost.
type phase struct {
	rounds, ops int
	wall        float64
	// best holds each op input's least wall and least CPU seconds.
	best map[string]opTime
	// roundRSS holds each round's peak resident set; opRSS the per-op
	// peaks where the workload resets the peak before each op.
	roundRSS []float64
	opRSS    []float64
	analyze  []float64
	synth    []float64
	classify []float64
	segments int
	funnel   core.Funnel
	// stragglers holds, per round, the slowest trace's synthesis time over
	// the median one's.
	stragglers []float64
	// Traced phases only: each round's counter deltas, their sums, and the
	// runtime's allocation and GC-cycle deltas.
	counters             []map[string]int64
	counterSum           map[string]int64
	allocBytes, gcCycles float64
	reg                  *obs.Registry
}

// opTime is an op's work time and process CPU, in seconds.
type opTime struct{ wall, cpu float64 }

// opsPerRound is how many ops a round runs.
func (p *phase) opsPerRound() float64 { return float64(p.ops) / float64(p.rounds) }

// opsPerS is a round's ops over the sum of its ops' best work times.
func (p *phase) opsPerS() float64 {
	w := 0.0
	for _, t := range p.best {
		w += t.wall
	}
	return p.opsPerRound() / w
}

// cpuPerOp is the sum of the ops' best process CPU, per op.
func (p *phase) cpuPerOp() float64 {
	c := 0.0
	for _, t := range p.best {
		c += t.cpu
	}
	return c / p.opsPerRound()
}

// latencyP50 is the median over op inputs of each input's best latency.
func (p *phase) latencyP50() float64 {
	var xs []float64
	for _, t := range p.best {
		xs = append(xs, t.wall)
	}
	return median(xs)
}

// peakRSS is the median op's resident-set peak where the workload resets
// the peak before each op (paper_cold), else the median round's.
func (p *phase) peakRSS() float64 {
	if len(p.opRSS) > 0 {
		return median(p.opRSS)
	}
	return median(p.roundRSS)
}

// runner drives one benchmark run: set-up and measured phases, with every
// op's output checked.
type runner struct {
	w   workload
	ops []input

	attempted, failed int
	errs              []string
	answers           map[string]string  // input -> answer fingerprint
	labeled           map[string]bool    // input -> classifier label is the capture's CCA
	fits              map[string]bool    // input -> handler fits at least as well as the fine-tuned one
	dists             map[string]float64 // input -> answer distance
	// expected holds the recorded answers each answer must equal; nil when
	// recording.
	expected map[string]string
}

// runRound runs one round and checks every answer. The workload times
// its own work, so the round's wall and CPU figures leave out the memory
// resets between ops.
func (r *runner) runRound(p *phase) {
	var before map[string]int64
	var rt0 runtimeStats
	if p.reg != nil {
		before, rt0 = p.reg.CounterValues(""), readRuntime()
	}
	res := r.w.round(p.reg)
	rss := peakRSSMB()
	if p.reg != nil {
		// Counted here, not over the phase, so the output checks' own
		// scoring stays out of the per-layer counters.
		after, rt1 := p.reg.CounterValues(""), readRuntime()
		d := map[string]int64{}
		for n, v := range after {
			d[n] = v - before[n]
			p.counterSum[n] += d[n]
		}
		p.counters = append(p.counters, d)
		p.allocBytes += rt1.allocBytes - rt0.allocBytes
		p.gcCycles += rt1.gcCycles - rt0.gcCycles
	}
	p.rounds++
	p.roundRSS = append(p.roundRSS, rss)
	var synth []float64
	for _, o := range res {
		p.ops++
		if o.PeakRSS > 0 {
			p.opRSS = append(p.opRSS, o.PeakRSS)
		}
		p.wall += o.Latency
		t := opTime{o.Latency, o.CPU}
		if b, ok := p.best[o.Input]; ok {
			t = opTime{math.Min(t.wall, b.wall), math.Min(t.cpu, b.cpu)}
		}
		p.best[o.Input] = t
		p.analyze = append(p.analyze, o.AnalyzeS)
		if o.SynthesizeS > 0 {
			synth = append(synth, o.SynthesizeS)
		}
		if o.ClassifyS > 0 {
			p.classify = append(p.classify, o.ClassifyS)
		}
		p.segments += o.Segments
		p.funnel.Merge(o.funnel)
	}
	p.synth = append(p.synth, synth...)
	if len(synth) > 1 {
		p.stragglers = append(p.stragglers, maxOf(synth)/median(synth))
	}
	for i := range res {
		r.attempted++
		if err := r.checkOne(&res[i]); err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, err.Error())
			}
		}
	}
}

// checkOne checks an answer, that it equals the recorded one, and that it
// repeats the input's earlier answers in this run.
func (r *runner) checkOne(o *opResult) error {
	if err := check(o); err != nil {
		return err
	}
	ans := fmt.Sprintf("%s|%016x", o.Handler, math.Float64bits(o.Distance))
	if o.Label != "" {
		ans = fmt.Sprintf("%s|%016x|%s", o.Label, math.Float64bits(o.Nearest), ans)
	}
	if want := r.expected[o.Input]; r.expected != nil && ans != want {
		return fmt.Errorf("%s: answer %s, recorded answer %s", o.Input, ans, want)
	}
	if prev, ok := r.answers[o.Input]; ok {
		if prev != ans {
			return fmt.Errorf("%s: answer changed between rounds: %s then %s", o.Input, prev, ans)
		}
		return nil
	}
	r.answers[o.Input] = ans
	// Table 2's comparison: the synthesized handler should fit the trace
	// at least as well as the CCA's fine-tuned handler.
	f, err := expr.Lookup(o.Truth)
	if err != nil {
		return err
	}
	fd, _ := replay.NewScorer(o.segs, dist.DTW{}).Score(f.Handler(), math.Inf(1))
	r.fits[o.Input] = o.Distance <= fd
	r.dists[o.Input] = o.Distance
	if o.Label != "" {
		r.labeled[o.Input] = o.Label == o.Truth
	}
	return nil
}

// runPhase runs at least minRounds whole rounds, then more until the
// measured time reaches seconds, stopping early rather than overshooting by
// more than half a round.
func (r *runner) runPhase(seconds float64, minRounds int, reg *obs.Registry) *phase {
	p := &phase{reg: reg, counterSum: map[string]int64{}, best: map[string]opTime{}}
	for {
		before := p.wall
		r.runRound(p)
		last := p.wall - before
		if p.rounds >= minRounds && p.wall+last/2 >= seconds {
			return p
		}
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	dir := fs.String("dir", "", "generated input directory")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Bool("trace", false, "also run a traced phase with an obs registry and CPU profile")
	commit := fs.String("commit", "", "source revision, recorded in the host stamp")
	expect := fs.String("expect", "", "recorded answers file every answer must match; empty when recording")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	m, err := readManifest(*dir)
	if err != nil {
		return err
	}
	w, ops, err := newWorkload(m, *dir)
	if err != nil {
		return err
	}
	r := &runner{
		w: w, ops: ops,
		answers: map[string]string{}, labeled: map[string]bool{}, fits: map[string]bool{}, dists: map[string]float64{},
	}
	if *expect != "" {
		if r.expected, err = readAnswers(*expect, m); err != nil {
			return err
		}
	}
	out := result{Workload: m.Workload, Seed: m.Seed, Host: hostStamp(*commit)}
	refBefore := refLoop()

	var reg *obs.Registry
	if *traced {
		reg = obs.New()
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(reg); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The end-to-end figures are each op's best over at least three rounds.
	// A traced run reports no end-to-end figures and splits its time
	// between halves.
	measured, minRounds := *seconds, 3
	if *traced {
		measured, minRounds = measured/2, 1
	}
	up := r.runPhase(measured, minRounds, nil)
	out.E2E = map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     up.opsPerS(),
		"cpu_s_per_op":  up.cpuPerOp(),
		"latency_p50_s": up.latencyP50(),
		"peak_rss_mb":   up.peakRSS(),
	}
	out.Ops = up.ops
	out.Rounds = up.rounds

	if *traced {
		layer, err := r.tracedPhase(*seconds-measured, reg, up, setups, m.Workload, &out)
		if err != nil {
			return err
		}
		out.Layer = layer
	}
	refAfter := refLoop()
	out.Host.RefBeforeS, out.Host.RefAfterS = refBefore, refAfter
	if out.Layer != nil {
		out.Layer["host.ref_s"] = (refBefore + refAfter) / 2
	}

	out.Attempted, out.Failed, out.Errors = r.attempted, r.failed, r.errs
	out.Answers = r.answers
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// tracedPhase runs the measured phase again with the obs registry routed
// into every instrumented package and a CPU profile recording, and derives
// the per-layer metrics.
func (r *runner) tracedPhase(seconds float64, reg *obs.Registry, up *phase, setups []float64, workload string, out *result) (map[string]float64, error) {
	dist.Observe(reg)
	dsl.Observe(reg)
	replay.Observe(reg)
	defer func() {
		dist.Observe(nil)
		dsl.Observe(nil)
		replay.Observe(nil)
	}()
	prof, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(prof.Name())
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tp := r.runPhase(seconds, 1, reg)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}

	cpu, err := attribute(prof.Name())
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(tp.counters); i++ {
		for _, n := range fingerprintCounters {
			if tp.counters[i][n] != tp.counters[0][n] {
				out.CounterDiffs = append(out.CounterDiffs, fmt.Sprintf("%s: round 1 %d, round %d %d", n, tp.counters[0][n], i+1, tp.counters[i][n]))
			}
		}
	}
	out.Counters = map[string]int64{}
	for _, n := range fingerprintCounters {
		out.Counters[n] = tp.counters[0][n]
	}

	ops := float64(tp.ops)
	c := func(n string) float64 { return float64(tp.counterSum[n]) }
	l := map[string]float64{}
	total := 0.0
	for _, name := range layers {
		l["layer."+name+".cpu_s"] = cpu[name] / ops
		total += cpu[name]
	}
	l["profile.cpu_s"] = total / ops
	out.Dominant = dominant(cpu)

	decode, packets, err := r.decodePass()
	if err != nil {
		return nil, err
	}
	l["span.decode_s"] = decode
	l["wire.packets_per_op"] = packets
	l["span.analyze_s"] = median(tp.analyze)
	l["trace.segments_per_op"] = float64(tp.segments) / ops
	l["span.classify_s"] = median(tp.classify)
	l["span.synthesize_s"] = median(tp.synth)
	l["span.library_s"], l["span.corpus_build_s"] = 0, 0
	switch workload {
	case "paper_cold":
		l["span.library_s"] = median(setups)
	case "batch_warm":
		l["span.corpus_build_s"] = median(setups)
	}
	handlers := c("core.handlers_scored")
	l["enum.candidates_per_op"] = c("enum.candidates") / ops
	l["enum.sketches_per_op"] = c("enum.sketches") / ops
	l["dsl.progs_compiled_per_op"] = c("dsl.progs_compiled") / ops
	l["replay.prologue_hit_ratio"] = ratio(c("replay.prologue_hits"), c("replay.prologue_hits")+c("replay.prologue_misses"))
	l["corpus.program_cache_hit_ratio"] = ratio(c("corpus.program_cache_hits"), c("corpus.program_cache_hits")+c("corpus.program_cache_misses"))
	l["replay.instrs_per_handler"] = ratio(c("replay.instrs_executed"), handlers)
	l["replay.lanes_per_batch"] = ratio(c("replay.lanes_filled"), c("replay.batches_executed"))
	l["dist.dtw_cells_per_handler"] = ratio(c("dist.dtw_cells"), handlers)
	l["dist.lb_prune_ratio"] = ratio(c("dist.lb_prunes"), c("dist.dtw_calls"))
	l["core.handlers_scored_per_op"] = handlers / ops
	l["core.score_cache_hit_ratio"] = ratio(c("core.score_cache_hits"), c("core.score_cache_hits")+c("core.score_cache_misses"))
	f := tp.funnel
	lb := f.Stages[core.FunnelLBKim].Candidates + f.Stages[core.FunnelLBKeogh].Candidates
	l["core.funnel.lb_share"] = ratio(float64(lb), float64(f.Enumerated))
	l["core.funnel.fully_scored_share"] = ratio(float64(f.Stages[core.FunnelFullyScored].Candidates), float64(f.Enumerated))
	l["corpus.trace_s_max_over_p50"] = 0
	if workload == "batch_warm" {
		l["corpus.trace_s_max_over_p50"] = median(tp.stragglers)
	}
	l["runtime.alloc_mb_per_op"] = tp.allocBytes / 1e6 / ops
	l["runtime.gc_cycles_per_op"] = tp.gcCycles / ops
	l["obs.tracing_overhead"] = tp.opsPerS() / up.opsPerS()
	l["dist_geomean"] = r.distGeomean()
	l["label_accuracy"] = share(r.labeled)
	l["fit_vs_fine_tuned"] = share(r.fits)
	return l, nil
}

// decodePass times a wire-only pass (pcap records decoded to packets, no
// trace analysis) over each op input, returning the median seconds and
// mean packets per input.
func (r *runner) decodePass() (float64, float64, error) {
	var times []float64
	packets := 0
	var rec wire.PcapRecord
	var pkt wire.Packet
	for _, in := range r.ops {
		f, err := os.Open(in.File)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		pr := wire.NewPcapReader(bufio.NewReaderSize(f, 1<<16))
		for {
			err := pr.NextInto(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return 0, 0, fmt.Errorf("%s: %w", in.File, err)
			}
			if wire.DecodePacketLinkInto(pr.LinkType, rec.Data, &pkt) == nil {
				packets++
			}
		}
		times = append(times, time.Since(t0).Seconds())
		f.Close()
	}
	return median(times), float64(packets) / float64(len(r.ops)), nil
}

// share is the fraction of op inputs marked true in m; 0 when m is empty
// (no op passed its check, or the workload classifies nothing).
func share(m map[string]bool) float64 {
	n := 0
	for _, ok := range m {
		if ok {
			n++
		}
	}
	return ratio(float64(n), float64(len(m)))
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// distGeomean is the geometric mean of the winning handlers' DTW
// distances. Zero and infinite distances are left out.
func (r *runner) distGeomean() float64 {
	// Summed in input order, so that the result repeats to the bit.
	inputs := make([]string, 0, len(r.dists))
	for in := range r.dists {
		inputs = append(inputs, in)
	}
	sort.Strings(inputs)
	s, n := 0.0, 0
	for _, in := range inputs {
		if d := r.dists[in]; d > 0 && !math.IsInf(d, 0) {
			s += math.Log(d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// readAnswers loads the recorded answers of the manifest's workload and
// input set: answers.json maps workload, then set, then input file, to
// the answer.
func readAnswers(path string, m *manifest) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want := all[m.Workload][strconv.FormatInt(m.Seed, 10)]
	if len(want) == 0 {
		return nil, fmt.Errorf("%s has no answers for %s input set %d", path, m.Workload, m.Seed)
	}
	return want, nil
}

func dominant(cpu map[string]float64) string {
	best := ""
	for _, l := range layers {
		if best == "" || cpu[l] > cpu[best] {
			best = l
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS tracking at the current
// resident set, so that each round's peak is its own.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak is the process's
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

type runtimeStats struct{ allocBytes, gcCycles float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeStats{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// refLoop times a fixed single-threaded integer loop: a host-speed
// reference, recorded so a noisy verdict can be traced to host drift.
func refLoop() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 200_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	el := time.Since(t0).Seconds()
	if x == 0 { // keeps the loop from being optimized away
		fmt.Fprintln(os.Stderr, x)
	}
	return el
}

// host identifies the machine and toolchain a run measured.
type host struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	RefBeforeS float64 `json:"ref_before_s"`
	RefAfterS  float64 `json:"ref_after_s"`
}

func hostStamp(commit string) host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result is the run's machine-readable output, the last line of stdout.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Ops       int                `json:"ops"`
	Rounds    int                `json:"rounds"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Dominant  string             `json:"dominant_layer,omitempty"`
	Answers   map[string]string  `json:"answers"`
	Counters  map[string]int64   `json:"counters,omitempty"`
	// CounterDiffs lists work counters that differed between traced rounds.
	CounterDiffs []string `json:"counter_diffs,omitempty"`
	Host         host     `json:"host"`
}
