// Command benchmark is the SINTRA benchmark: four request workloads
// against whole deployments, seven bounded end-to-end metrics plus the
// failure ratio, and a per-layer budget from a traced run and from
// isolated drivers of every package. README.md has the tables.
//
//	go run . -workload small-closed -seed 1 -seconds 20 -trace 0   # one run, result line last
//	go run .                                                       # all workloads, then the traced pass
//	go run . -runs 5 -out a.json                                   # five seeds per workload, kept for -compare
//	go run . -compare a.json b.json                                # bounds applied per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// env is the environment stamp carried by every result.
type env struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	CPUs         int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Group        string  `json:"group"`
	Seed         int64   `json:"seed"`
	WarmUpSec    float64 `json:"warm_up_s"`
	MeasuredSec  float64 `json:"measured_s"`
	TempDirFS    string  `json:"temp_dir_fs"`
	InjectedWait string  `json:"injected_delay"`
}

var tempDirFS = "unknown"

func stamp(seed int64, lead, length time.Duration) env {
	return env{
		Commit:       commit(),
		GoVersion:    runtime.Version(),
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Group:        groupBackend,
		Seed:         seed,
		WarmUpSec:    lead.Seconds(),
		MeasuredSec:  length.Seconds(),
		TempDirFS:    tempDirFS,
		InjectedWait: "zero: latency is processor time plus queueing, not network delay",
	}
}

// commit names the source revision: the VCS stamp of the build when there
// is one, else what git reports, else "unknown" (an exported checkout).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// fsName names the filesystem holding dir, from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("statfs-0x%x", uint32(st.Type))
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload alone and print its result line last (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seeds the netsim scheduler and the request bodies")
		seconds = flag.Float64("seconds", 20, "length of the measured interval")
		trace   = flag.Int("trace", 0, "1: the traced pass (per-layer metrics) instead of the end-to-end run")
		runs    = flag.Int("runs", 1, "suite only: runs per workload, on consecutive seeds")
		out     = flag.String("out", "", "suite only: write every result to this JSON file, for -compare")
		cmp     = flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.json change.json")
		tmp     = flag.String("tmp", os.TempDir(), "directory for WAL data directories")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare parent.json change.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds <= 0 || *runs < 1 {
		fatal("-seconds and -runs must be positive")
	}
	// Pinned before any router exists: the verify pool sizes itself from it.
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal("%v", err)
	}
	tempDirFS = fsName(*tmp)

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		res, err := run(w, *seed, *seconds, *trace != 0, *tmp)
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		report(os.Stdout, w, res)
		fmt.Println(resultLine(res))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// The suite: every workload end to end, then the traced pass.
	var all []*result
	ok := true
	for _, traced := range []bool{false, true} {
		for i := range workloads {
			w := &workloads[i]
			n := *runs
			if traced {
				n = 1
			}
			for r := 0; r < n; r++ {
				res, err := run(w, *seed+int64(r), *seconds, traced, *tmp)
				if err != nil {
					fatal("%s: %v", w.Name, err)
				}
				report(os.Stdout, w, res)
				all = append(all, res)
				ok = ok && res.Correct
			}
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(*out, raw, 0o644)
		}
		if err != nil {
			fatal("%v", err)
		}
	}
	if !ok {
		fmt.Println("FAIL: at least one run violated the correctness gate")
		os.Exit(1)
	}
}

// resultLine is the driver's contract: one JSON object, last on stdout.
func resultLine(res *result) string {
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal("%v", err)
	}
	return string(raw)
}

// report prints one result for a reader: the stamp, then every metric by
// name and unit in declaration order.
func report(f *os.File, w *workload, res *result) {
	kind, list := "end-to-end (tracing off)", endToEnd
	if res.Trace {
		kind, list = "per-layer (traced half + isolated drivers)", perLayer
	}
	e := res.Env
	fmt.Fprintf(f, "\n== %s — %s\n", w.Name, kind)
	fmt.Fprintf(f, "   %s\n", w.Shape)
	fmt.Fprintf(f, "   commit %s, %s, nproc %d, GOMAXPROCS %d, group %s, seed %d, warm-up %.1fs, measured %.1fs, temp dir on %s\n",
		e.Commit, e.GoVersion, e.CPUs, e.GOMAXPROCS, e.Group, e.Seed, e.WarmUpSec, e.MeasuredSec, e.TempDirFS)
	fmt.Fprintf(f, "   injected message delay %s\n", e.InjectedWait)
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(f, "   %-28s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if raw, scaled := res.Raw[m.Name]; scaled {
			fmt.Fprintf(f, " (measured %.4f)", raw)
		}
		fmt.Fprintln(f)
	}
	if !res.Trace {
		fmt.Fprintf(f, "   %-28s %14.4f ratio (%d failed of %d attempted; %d latency samples, tail supported to p%.0f)\n",
			"fail_ratio", res.failRatio(), res.Failed, res.Attempted, res.Samples, res.Tail*100)
	}
	fmt.Fprintf(f, "   correct=%v; machine speed %.4f of the reference: times and rates above are restated at reference speed\n",
		res.Correct, res.Speed)
	for _, n := range res.Notes {
		fmt.Fprintf(f, "   note: %s\n", n)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
