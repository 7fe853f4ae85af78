// Command benchmark is the repository's end-to-end performance ruler:
// it builds the real cmd/pitserve, boots it on loopback, drives /search
// and /updates with a closed loop of nproc clients, validates every
// answer against an in-process reference, and prints every metric by
// name and unit. README.md in this directory defines the workloads and
// metrics and records the measured noise; BENCHMARK.json at the module
// root is the contract the driver runs it under.
//
//	go run ./benchmark -workload tag_lrw -seed 1            # end to end
//	go run ./benchmark -workload tag_lrw -seed 1 -trace 1   # per layer
//	go run ./benchmark -selfcheck                           # A/B every workload
//	go run ./benchmark -smoke                               # < 10 s wiring check
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: tag_lrw, tag_rcl, tag_sharded or refresh_cycle")
		seed      = flag.Int64("seed", 1, "seed of the generated script (users, update batches)")
		seconds   = flag.Int("seconds", 10, "nominal measured time; sizes the script, not a stopwatch")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if a pair differs by more than its bound")
		smoke     = flag.Bool("smoke", false, "tiny run of one workload end to end and traced; checks every metric is emitted")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *smoke:
		err = runSmoke(ctx)
	case *selfcheck:
		err = runSelfcheck(ctx, *seed, *seconds)
	default:
		err = runOne(ctx, *name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is the run's last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs one workload under a profile: the load phase, and for a
// traced run the in-process replay after it.
func measure(ctx context.Context, env *environ, w workload, p profile, seed int64, traced bool) (report, error) {
	lr, err := runLoad(ctx, env, w, p, seed)
	if err != nil {
		return report{}, err
	}
	defer lr.ref.eng.Close()
	rep := report{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: lr.e2e}
	if traced {
		layers, ok, err := tracedReplay(ctx, env, lr)
		if err != nil {
			return report{}, fmt.Errorf("traced replay: %w", err)
		}
		for k, v := range lr.layer {
			layers[k] = v
		}
		rep.Metrics, rep.Correct = layers, rep.Correct && ok
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return report{}, fmt.Errorf("metric %s has no samples", name)
		}
	}
	return rep, nil
}

func runOne(ctx context.Context, name string, seed int64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	env, err := newEnviron(ctx)
	if err != nil {
		return err
	}
	defer env.cleanup()
	p := fullProfile(seconds)
	if traced {
		p = traceProfile(seconds)
	}
	rep, err := measure(ctx, env, w, p, seed, traced)
	if err != nil {
		return err
	}
	return rep.print(w.name)
}

// print writes every metric by name and unit, then the JSON line the
// driver reads.
func (r report) print(workload string) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d operations attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// contract is the part of BENCHMARK.json the benchmark checks itself
// against.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(root string) (contract, error) {
	var c contract
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(b, &c)
}

// runSelfcheck runs every workload twice back to back and fails if any
// end-to-end metric of the second run is worse than the first's by more
// than its bound, or the other way round: the two runs are the same
// code, so either direction is noise the bound must cover.
func runSelfcheck(ctx context.Context, seed int64, seconds int) error {
	env, err := newEnviron(ctx)
	if err != nil {
		return err
	}
	defer env.cleanup()
	c, err := readContract(env.root)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		var runs [2]report
		for i := range runs {
			if runs[i], err = measure(ctx, env, w, fullProfile(seconds), seed, false); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !runs[i].Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, runs[i].Failed, runs[i].Attempted)
			}
		}
		for _, m := range c.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if gap > m.Bound {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-14s %-24s %12.4f %12.4f %-5s gap %5.2f%% bound %5.2f%% %s\n",
				w.name, m.Name, a, b, m.Unit, gap*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric pairs differ by more than their bound", bad)
	}
	return nil
}

// runSmoke is the wiring check: a quarter-scale data_2k, one boot, two
// rounds, two refreshes, once end to end and once traced, in under ten
// seconds. It fails unless every metric BENCHMARK.json names comes out
// with its unit (measure already refuses a metric without samples) and no
// operation failed.
func runSmoke(ctx context.Context) error {
	env, err := newEnviron(ctx)
	if err != nil {
		return err
	}
	defer env.cleanup()
	c, err := readContract(env.root)
	if err != nil {
		return err
	}
	// The stages-sum-to-the-whole check of the traced run is a timing
	// relation over sub-millisecond requests here, so Correct is not
	// asserted: failed operations and missing metrics are.
	e2e, err := measure(ctx, env, workloads[0], smokeProfile(), 1, false)
	if err != nil {
		return err
	}
	layers, err := measure(ctx, env, workloads[0], smokeProfile(), 1, true)
	if err != nil {
		return err
	}
	if failed := e2e.Failed + layers.Failed; failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, e2e.Attempted+layers.Attempted)
	}
	var missing []string
	for _, m := range c.EndToEnd {
		if got, ok := e2e.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			missing = append(missing, m.Name)
		}
	}
	for _, m := range c.PerLayer {
		if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) > 0 || len(c.EndToEnd) != len(e2e.Metrics) || len(c.PerLayer) != len(layers.Metrics) {
		return fmt.Errorf("BENCHMARK.json and the benchmark disagree: %d/%d end-to-end and %d/%d per-layer metrics, missing or mis-united %v",
			len(e2e.Metrics), len(c.EndToEnd), len(layers.Metrics), len(c.PerLayer), missing)
	}
	fmt.Printf("smoke ok: %d end-to-end and %d per-layer metrics, %d operations, none failed\n",
		len(e2e.Metrics), len(layers.Metrics), e2e.Attempted+layers.Attempted)
	return nil
}
