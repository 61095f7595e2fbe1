// Command perfbench is the repository's end-to-end benchmark: simulated
// captures in, handlers or labels out, through the same packages
// cmd/abagnale and cmd/classify use. run.py builds it and drives one run;
// README.md describes the workloads and metrics.
//
//	perfbench gen -workload W -seed N -dir DIR
//	perfbench run -dir DIR -seconds S [-trace] [-commit REV]
//
// gen simulates a workload's inputs from a seed and writes them as pcap
// files; run measures the workload over them and prints one JSON line.
package main

import (
	"errors"
	"fmt"
	"os"
)

var errUsage = errors.New("usage: perfbench gen -workload W -seed N -dir DIR | perfbench run -dir DIR -seconds S [-trace] [-commit REV]")

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, errUsage)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	default:
		err = errUsage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
