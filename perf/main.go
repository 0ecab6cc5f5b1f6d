// Command perf is the repository's benchmark: four fixed-work workloads,
// six end-to-end metrics from an untraced run, and the per-layer metrics
// from a traced run.  See README.md; run it through run.sh.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// metricV is one reported value.
type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares an end-to-end metric: its unit, direction and the share
// of the parent's median by which it may worsen before a change is rejected.
// The timing bounds are the widest the contract allows: on a shared 2-core
// box identical code runs 10–17 % faster for minutes at a time, whenever the
// host's other tenants fall quiet; see README.md.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

var endToEnd = []metricDef{
	{"op_p50_us", "us", "lower", 0.25},
	{"aux_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print the result as one JSON line; empty runs all four, each in a fresh child process")
		seed    = flag.Int64("seed", 1, "seed of the generated databases and op sequences")
		seconds = flag.Float64("seconds", 20, "length of the measured phase of each run")
		rounds  = flag.Int("rounds", 0, "measure exactly this many rounds instead of -seconds, so op counts repeat exactly")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1 (all workloads only): both")
		tiny    = flag.Bool("tiny", false, "tiny size preset, for tests")
		repeat  = flag.Int("repeat", 0, "run the untraced benchmark this many times and check the spread of every end-to-end metric")
		out     = flag.String("out", "perf/out", "directory for trace files and run records")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, sz: fullSizes, out: *out}
	if *tiny {
		cfg.sz = tinySizes
	}
	var err error
	switch {
	case *name != "":
		err = runOne(*name, cfg, *trace == 1)
	case *repeat > 0:
		err = runRepeat(*repeat, *out)
	default:
		err = runAll(*trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process.  The last line of standard
// output is the result in the form the benchmark contract prescribes; the
// full record, with the environment, goes to <out>/<workload>.run.json.
func runOne(name string, cfg config, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	run := measure
	if traced {
		run = measureTraced
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	res, err := run(w, cfg)
	if err != nil {
		return err
	}
	for _, warning := range res.Env.Warnings {
		fmt.Fprintln(os.Stderr, "perf: warning:", warning)
	}
	kind := "run"
	if traced {
		kind = "traced"
	}
	if err := writeJSON(fmt.Sprintf("%s/%s.%s.json", cfg.out, name, kind), res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perf: %s: %d rounds in %.1f s, %d ops, %d failed\n", name, res.Rounds, res.MeasuredS, res.Attempted, res.Failed)
	cerr := res.check()
	line, err := json.Marshal(contractLine{Correct: cerr == nil, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		return fmt.Errorf("%s: %w (%v)", name, err, cerr)
	}
	fmt.Println(string(line))
	return cerr
}

// contractLine is the last line runOne prints.
type contractLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
}

// child runs one workload in a fresh process of this binary, strictly alone,
// and returns its result line.
func child(name string, traced bool) (contractLine, error) {
	var line contractLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	args := append([]string{"-workload", name, "-trace=0"}, passThrough()...)
	if traced {
		args[2] = "-trace=1"
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %v", name, runErr, err)
	}
	return line, runErr
}

// passThrough rebuilds the flags a child inherits from this invocation.
func passThrough() []string {
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "seconds", "rounds", "tiny", "out":
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	return pass
}

// runAll runs every workload, one after another, and prints every metric by
// name with its unit.
func runAll(trace int) error {
	var firstErr error
	for _, traced := range []bool{false, true} {
		if trace >= 0 && traced != (trace == 1) {
			continue
		}
		for _, w := range workloads {
			line, err := child(w.name, traced)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			printMetrics(w.name, line)
		}
	}
	return firstErr
}

func printMetrics(workload string, line contractLine) {
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", workload, line.Correct, line.Attempted, line.Failed)
	for _, name := range names {
		m := line.Metrics[name]
		fmt.Printf("  %-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
}

// runRepeat runs the whole untraced benchmark n times and prints, for every
// workload and end-to-end metric, the median and (max-min)/median of the n
// values.  A spread beyond the metric's bound is an error.
func runRepeat(n int, out string) error {
	type cell struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			line, err := child(w.name, false)
			if err != nil {
				return err
			}
			for _, d := range endToEnd {
				values[w.name+"/"+d.Name] = append(values[w.name+"/"+d.Name], line.Metrics[d.Name].Value)
			}
		}
	}
	var cells []cell
	var wide []string
	fmt.Printf("| workload | metric | unit | median | (max-min)/median | bound |\n|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := values[w.name+"/"+d.Name]
			c := cell{Workload: w.name, Metric: d.Name, Unit: d.Unit, Values: vs, Median: median(vs), Bound: d.Bound}
			c.Spread = (quantile(vs, 1) - quantile(vs, 0)) / c.Median
			cells = append(cells, c)
			fmt.Printf("| %s | %s | %s | %.4g | %.1f %% | %.0f %% |\n", c.Workload, c.Metric, c.Unit, c.Median, 100*c.Spread, 100*c.Bound)
			if c.Spread > c.Bound {
				wide = append(wide, c.Workload+"/"+c.Metric)
			}
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeJSON(out+"/spread.json", cells); err != nil {
		return err
	}
	if len(wide) > 0 {
		return fmt.Errorf("spread beyond the bound: %s", strings.Join(wide, ", "))
	}
	return nil
}
