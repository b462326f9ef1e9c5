// Command perfbench is the repository's benchmark. It runs one classroom
// workload through the public APIs of internal/mpi, internal/shm,
// internal/exemplars, internal/cluster and internal/sched, checks every unit
// against its sequential oracle, and prints the metrics BENCHMARK.json names,
// by name and unit. The last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload fire-local --seed 1 --seconds 15 --trace 0
//
// Every run first works for two seconds untimed. With --trace 0 it then
// measures the end-to-end metrics untraced. With --trace 1 it reports the
// per-layer metrics: it runs the workload twice for half the time each,
// traced (spans, message counts) and untraced (for the proc.* metrics and
// the tracing overhead), then probes each layer on its own; a layer the
// workload does not use is still probed, so every traced run reports every
// metric. Host facts, sample counts and the metrics go to .bench_out/, and
// a traced run's spans go there as JSON lines.
//
// The workloads, and why each is there:
//
//   - fire-local: forest-fire domain decomposition at np=2 on the local
//     transport. About 200 steps of one scalar Allreduce plus one small halo
//     shift each, so the small-message path does most of the work.
//   - pagerank-tcp: PageRank at np=2 over the loopback TCP hub on a 50k
//     vertex graph. Few, large AlltoallvInto frames: the same mpi layer as
//     fire-local, used for bytes instead of message count.
//
// No workload goes through the shm runtime or the scheduler. On a 2-vCPU
// host their tail latency (drug-design screens on a 2-thread team;
// sub-millisecond jobs over HTTP) moved by a third between runs of the same
// code, too much for a bound. A traced run probes both instead: shm region
// launch and chunk handout, and a one-second open loop of width-2
// integration jobs submitted over HTTP to an in-process scheduler
// (jobs.go), which reports the sched.* metrics.
// The graph is smaller than a classroom run so that a run holds hundreds of
// units: a p90 from few units moves with host noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	tally   tally
	metrics map[string]metric
	samples map[string]int // sample count behind each percentile
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *result) add(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// pct adds a percentile metric, or fails when too few samples back it.
func (r *result) pct(name, unit string, xs []float64, q float64) error {
	v, err := percentile(xs, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.add(name, unit, v)
	r.samples[name] = len(xs)
	return nil
}

func main() {
	workload := flag.String("workload", "", "fire-local or pagerank-tcp")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, dur time.Duration, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	mk, ok := map[string]func(int64) *batch{"fire-local": fireBatch, "pagerank-tcp": pagerankBatch}[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	b := mk(seed)
	var (
		r   *result
		err error
	)
	if traced {
		r, err = batchLayers(workload, b, seed, dur, tr)
	} else {
		r, err = batchEndToEnd(b, dur)
	}
	if err != nil {
		return err
	}

	host := hostFacts(workload, seed, traced)
	base := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, map[bool]int{false: 0, true: 1}[traced])
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(".bench_out", base+"-spans.jsonl")); err != nil {
			return err
		}
	}
	out := map[string]any{
		"correct": r.tally.bad() == 0, "attempted": r.tally.attempted, "failed": r.tally.bad(),
		"metrics": r.metrics,
	}
	for k, v := range out {
		host[k] = v
	}
	host["samples"] = r.samples
	if err := writeJSON(filepath.Join(".bench_out", base+".json"), host); err != nil {
		return err
	}

	fmt.Printf("host: nproc=%v gomaxprocs=%v go=%v cpu=%q workload=%s seed=%d\n",
		host["nproc"], host["gomaxprocs"], host["go"], host["cpu"], workload, seed)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-28s %14.6g %s", n, m.Value, m.Unit)
		if k, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Println(line)
	}
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// hostFacts are the facts every result depends on.
func hostFacts(workload string, seed int64, traced bool) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"workload": workload, "seed": seed, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu,
		"when": time.Now().UTC().Format(time.RFC3339),
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
