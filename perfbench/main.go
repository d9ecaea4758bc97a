// Command perfbench is jxplain's end-to-end benchmark. `perfbench run`
// generates a seeded input for one workload, builds the program, computes
// a reference schema, and then runs ops in a closed loop for a fixed
// time: one op at a time, each a fresh process over the pre-generated
// file, each output checked against the reference. It prints every
// metric by name and unit, and as its last line one JSON object with the
// result. With -trace 1 it also runs traced ops and reports per-layer
// metrics derived from their spans.
//
// The other subcommands are the processes `run` starts: gen (input
// generation), ref (reference schema), live (the live workload's op),
// trace and trace-map (traced ops). See README.md.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench run|gen|ref|live|trace|trace-map [flags]")
		os.Exit(2)
	}
	cmds := map[string]func([]string) error{
		"run":       cmdRun,
		"gen":       cmdGen,
		"ref":       cmdRef,
		"live":      cmdLive,
		"trace":     cmdTrace,
		"trace-map": cmdTraceMap,
	}
	cmd, ok := cmds[os.Args[1]]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown subcommand %q\n", os.Args[1])
		os.Exit(2)
	}
	if err := cmd(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
