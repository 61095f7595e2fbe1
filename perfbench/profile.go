package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the pipeline layers a CPU-profile sample can be charged to,
// in report order. gc and other take the samples with no layer frame.
var layers = []string{
	"wire", "trace", "classify", "enumerate", "compile", "prologue", "vm",
	"resample", "dtw", "replay", "search", "corpus", "gc", "other",
}

// layerOf names the layer whose entry frame fn is, or "" if fn is not a
// layer entry. Only entry frames count, so helpers such as
// dsl.CheckHandlerUnits, fmt, math and runtime.mallocgc are charged to
// whichever layer called them.
func layerOf(fn string) string {
	const p = "repro/internal/"
	if !strings.HasPrefix(fn, p) {
		return ""
	}
	fn = fn[len(p):]
	pkg, rest, _ := strings.Cut(fn, ".")
	switch pkg {
	case "wire":
		return "wire"
	case "trace":
		return "trace"
	case "classify":
		return "classify"
	case "enum":
		return "enumerate"
	case "replay":
		return "replay"
	case "core":
		return "search"
	case "corpus":
		return "corpus"
	case "dist":
		if strings.HasPrefix(rest, "(*Resampler).") {
			return "resample"
		}
		return "dtw"
	case "dsl":
		switch {
		case rest == "CompileProgram":
			return "compile"
		case rest == "(*Program).RunPrologue":
			return "prologue"
		case strings.HasPrefix(rest, "(*Program).EvalSeries"):
			return "vm"
		}
	}
	return ""
}

// gcRoots are the runtime goroutines that do garbage-collection work on
// their own stacks (background marking, sweeping and scavenging).
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcDrain": true, "runtime.markroot": true, "runtime.gcMarkDone": true, "runtime.gcStart": true,
}

// traceSep separates samples in `go tool pprof -traces` output.
const traceSep = "-----------+"

// attribute charges each sample of the CPU profile at path to the
// innermost layer entry frame on its stack and returns CPU seconds per
// layer. The stacks come from `go tool pprof -traces`, which lists each
// sample's frames leaf first, inlined frames included.
func attribute(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	// Before the first separator is the profile's header. After each one
	// comes a sample: its value and leaf frame on one line, then one frame
	// per line. The last separator closes the list.
	for _, block := range strings.Split(string(raw), traceSep)[1:] {
		frames := strings.Split(block, "\n")[1:]
		if len(frames) == 0 || strings.TrimSpace(frames[0]) == "" {
			continue
		}
		f := strings.Fields(frames[0])
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil || len(f) < 2 {
			return nil, fmt.Errorf("go tool pprof: bad sample line %q", frames[0])
		}
		frames[0] = f[1]
		out[stackLayer(frames)] += ns / 1e9
	}
	return out, nil
}

// stackLayer names the layer a sample is charged to, from its frame
// lines, leaf first: the innermost layer entry, else gc if a GC root is on
// the stack, else other.
func stackLayer(frames []string) string {
	gc := false
	for _, line := range frames {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if l := layerOf(f[0]); l != "" {
			return l
		}
		gc = gc || gcRoots[f[0]]
	}
	if gc {
		return "gc"
	}
	return "other"
}
