// Command perfbench is the grid's end-to-end benchmark. It builds
// nothing itself: run.sh builds rpcv-coordinator and rpcv-server from
// the checkout and this driver, then runs
//
//	perfbench -bin <dir> -work <dir> --workload sweep|steady|churn \
//	    --seed N --seconds S --trace 0|1
//
// The daemons run as child processes over loopback TCP with their
// stores on the checkout's disk; this process hosts the client
// library, generates every call from the seed, checks every result
// against its own reference, and prints one JSON object as the last
// line of standard output. See README.md for the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"
)

// runBudget bounds a whole invocation, set-up and drain included.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "sweep | steady | churn")
	seed := flag.Uint64("seed", 1, "seed for arrivals, payloads, session IDs and kill times")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	bin := flag.String("bin", "", "directory holding rpcv-coordinator and rpcv-server")
	work := flag.String("work", "", "directory for the grids' temporary disks")
	flag.Parse()

	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || *bin == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *wl)
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := &runner{
		ctx: ctx, p: newPlan(w, *seed, *seconds),
		bin: *bin, work: *work, ports: newPortPool(), clk: wallClock{},
	}
	var out report
	var err error
	if *trace == 1 {
		out, err = r.traced()
	} else {
		out, err = r.endToEnd()
	}
	if err != nil {
		// No result line: a failed check, a timeout or a signal leaves
		// nothing a reader could mistake for a measurement.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is what one invocation prints.
type report struct {
	attempted, failed int
	defs              []metricDef // printed and in the result line
	info              []metricDef // printed only
	values            map[string]float64
	na                map[string]string
}

func (rp report) print() error {
	for _, d := range append(slices.Clone(rp.defs), rp.info...) {
		line := fmt.Sprintf("%-34s %14.4f %s", d.name, rp.values[d.name], d.unit)
		if why, ok := rp.na[d.name]; ok {
			line += "  (n/a: " + why + ")"
		}
		fmt.Println(line)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range rp.defs {
		metrics[d.name] = metric{rp.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, rp.attempted, rp.failed, metrics}) // failed checks never reach print
	if err != nil {
		return fmt.Errorf("result line: %w", err) // a NaN or infinite metric
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd sets up setupReps grids, keeps the last, and measures the
// workload on it with tracing off.
func (r *runner) endToEnd() (report, error) {
	var setups []float64
	var ph *phase
	for i := 0; i < setupReps; i++ {
		if ph != nil {
			if err := ph.finish(); err != nil {
				return report{}, err
			}
		}
		var err error
		if ph, err = r.setUp(false); err != nil {
			ph.teardown()
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, ph.setup.Seconds())
	}
	res, err := r.measure(ph)
	if ferr := ph.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return report{}, err
	}
	res.metrics["setup_s"] = quantile(setups, 0.5)
	return report{
		attempted: res.attempted, failed: res.failed,
		defs: endToEndMetrics, info: endToEndInfo, values: res.metrics,
	}, nil
}

// measure warms a set-up phase up, runs the measured window and
// computes its end-to-end metrics.
func (r *runner) measure(ph *phase) (result, error) {
	if err := ph.warmUp(); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	merr := ph.measure()
	if ph.col != nil {
		ph.col.stop()
	}
	res, err := ph.endToEnd()
	if merr != nil {
		return res, merr
	}
	return res, err
}

// traced runs the workload twice on fresh grids, first untraced and
// then with every daemon's -admin endpoint and a client Observer, and
// reports the per-layer table with the tracing overhead between them.
func (r *runner) traced() (report, error) {
	plain, err := r.setUp(false)
	if err != nil {
		plain.teardown()
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	untraced, err := r.measure(plain)
	if ferr := plain.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return report{}, err
	}
	return r.tracedPhase(untraced)
}

func (r *runner) tracedPhase(untraced result) (report, error) {
	ph, err := r.setUp(true)
	if err != nil {
		ph.teardown()
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	ph.col = newCollector(ph)
	res, err := r.measure(ph)
	var lv layerValues
	if err == nil {
		lv, err = ph.perLayer(res, untraced)
	}
	if ferr := ph.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return report{}, err
	}
	lv.set("failed_frac", res.metrics["failed_frac"])
	lv.set("host_steal_pct", res.metrics["host_steal_pct"])
	lv.set("trace.pull_errors", float64(ph.col.pullErrs))
	for _, d := range perLayerMetrics {
		if _, ok := lv.v[d.name]; !ok {
			return report{}, errors.New("per-layer metric " + d.name + " was not computed")
		}
	}
	return report{
		attempted: res.attempted, failed: res.failed,
		defs: perLayerMetrics, info: tracedInfo, values: lv.v, na: lv.na,
	}, nil
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
