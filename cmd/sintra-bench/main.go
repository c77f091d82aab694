// Command sintra-bench regenerates the paper's tables and figures from
// the implementation (DESIGN.md §3 lists the experiment index):
//
//	sintra-bench -exp all          # everything (a few minutes)
//	sintra-bench -exp f1           # Figure 1 + the liveness attack
//	sintra-bench -exp stack        # §3 layer costs across n
//	sintra-bench -exp aba          # expected-constant-rounds agreement
//	sintra-bench -exp ex1 -exp ex2 # the §4.3 worked examples
//	sintra-bench -exp apps         # §5.2 input causality
//	sintra-bench -exp stack -group modp2048,p256  # backend comparison
//
// The -group flag selects the discrete-log group backend(s); a comma
// list reruns every selected experiment once per backend, tagging each
// table with the group name.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sintra/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sintra-bench:", err)
		os.Exit(1)
	}
}

type expList []string

func (e *expList) String() string     { return strings.Join(*e, ",") }
func (e *expList) Set(v string) error { *e = append(*e, v); return nil }

func run() error {
	var exps expList
	var (
		ops    = flag.Int("ops", 3, "operations per measured configuration")
		trials = flag.Int("trials", 10, "agreement trials per system size (aba)")
		sizes  = flag.String("sizes", "4,7,10,13,16", "system sizes for stack/aba sweeps")
		window = flag.Duration("window", 1500*time.Millisecond, "observation window for the f1 liveness attack")
		groups = flag.String("group", "", "comma list of group backends (modp2048 | p256 | test256 | test512): rerun the selected experiments per backend (default: SINTRA_GROUP or test256)")
	)
	flag.Var(&exps, "exp", "experiment: f1 | stack | aba | ex1 | ex2 | apps | tolerance | ablate | all (repeatable)")
	flag.Parse()
	if len(exps) == 0 {
		exps = expList{"all"}
	}

	var ns []int
	for _, s := range strings.Split(*sizes, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
			return fmt.Errorf("bad -sizes entry %q", s)
		}
		ns = append(ns, n)
	}

	groupList := []string{""} // empty: keep the harness default
	if *groups != "" {
		groupList = groupList[:0]
		for _, g := range strings.Split(*groups, ",") {
			groupList = append(groupList, strings.TrimSpace(g))
		}
	}

	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	for _, g := range groupList {
		if g != "" {
			if err := bench.SetGroupName(g); err != nil {
				return err
			}
		}
		if err := runExperiments(want, ns, *ops, *trials, *window); err != nil {
			return err
		}
	}
	return nil
}

func runExperiments(want map[string]bool, ns []int, ops, trials int, window time.Duration) error {
	all := want["all"]
	out := os.Stdout

	if all || want["f1"] {
		res, err := bench.RunF1(window)
		if err != nil {
			return err
		}
		bench.PrintFigure1(out, res)
		bench.Separator(out)
	}
	if all || want["stack"] {
		rows, err := bench.RunStack(ns, ops)
		if err != nil {
			return err
		}
		bench.PrintStack(out, rows)
		bench.Separator(out)
	}
	if all || want["aba"] {
		rows, err := bench.RunABARounds(ns, trials)
		if err != nil {
			return err
		}
		bench.PrintABARounds(out, rows)
		bench.Separator(out)
	}
	if all || want["ex1"] {
		res, err := bench.RunExample1(ops)
		if err != nil {
			return err
		}
		bench.PrintExample(out, res)
		bench.Separator(out)
	}
	if all || want["ex2"] {
		res, err := bench.RunExample2(ops)
		if err != nil {
			return err
		}
		bench.PrintExample(out, res)
		bench.Separator(out)
	}
	if all || want["apps"] {
		res, err := bench.RunCausality()
		if err != nil {
			return err
		}
		bench.PrintCausality(out, res)
		bench.Separator(out)
	}
	if all || want["tolerance"] {
		rows, err := bench.RunToleranceSweep(7, 2, 2, window)
		if err != nil {
			return err
		}
		bench.PrintToleranceSweep(out, rows)
		bench.Separator(out)
	}
	if all || want["ablate"] {
		rows, err := bench.RunBatchAblation([]int{1, 4, 16}, 16)
		if err != nil {
			return err
		}
		bench.PrintBatchAblation(out, rows)
		sig, err := bench.RunSigSchemeAblation(4, ops)
		if err != nil {
			return err
		}
		bench.PrintSigSchemeAblation(out, sig)
		bench.Separator(out)
	}
	return nil
}
