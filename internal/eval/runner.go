package eval

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lrw"
	"repro/internal/rcl"
	"repro/internal/search"
	"repro/internal/topics"
)

// Config scales the experiment harness. The defaults regenerate every
// figure in a few minutes on a laptop; Scale can be raised toward the
// paper's sizes at proportional cost.
type Config struct {
	// Scale multiplies the preset node counts and topic sizes (1 = the
	// laptop-scale defaults of dataset.Presets, which are themselves
	// scaled down from the paper; see DESIGN.md §3).
	Scale float64
	// Queries and Users size the workload (paper: 100 tags × 50 users).
	Queries, Users int
	// RepScale maps the paper's representative-node counts to ours:
	// ours = paper × RepScale (default 0.05, so the paper's 1000 → 50).
	RepScale float64
	// Options carries Algorithm 6's L and R, θ and the seed (paper: L=6,
	// R≈200; core's R=16 keeps index memory proportional at laptop
	// scale). Every engine an experiment builds starts from it.
	core.Options
}

// DefaultConfig returns the full laptop-scale configuration used by
// cmd/pitbench and the root benchmarks. Its engine parameters are core's
// stated configuration: binding core's flags onto a throwaway set writes
// their defaults.
func DefaultConfig() Config {
	c := Config{Scale: 1, Queries: 3, Users: 3, RepScale: 0.05}
	c.RegisterFlags(flag.NewFlagSet("eval", flag.ContinueOnError))
	return c
}

// TestConfig returns a miniature configuration for fast unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.08
	c.Queries = 2
	c.Users = 2
	c.WalkL = 4
	c.WalkR = 8
	return c
}

// fill gives each unset field its default and refuses any other
// out-of-range θ, L or R, naming the pitbench flag that sets it.
func (c *Config) fill() error {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.Users <= 0 {
		c.Users = d.Users
	}
	if c.WalkL == 0 {
		c.WalkL = d.WalkL
	}
	if c.WalkR == 0 {
		c.WalkR = d.WalkR
	}
	if c.Theta == 0 {
		c.Theta = d.Theta
	}
	if c.RepScale <= 0 {
		c.RepScale = d.RepScale
	}
	return c.CheckFlags()
}

// repsFor converts a paper representative count to this run's scale
// (minimum 2 so weighting remains meaningful).
func (c Config) repsFor(paperReps int) int {
	r := int(float64(paperReps) * c.RepScale)
	if r < 2 {
		r = 2
	}
	return r
}

// env is one fully built experimental environment: dataset, engine (with a
// specific rep count and walk length), baselines and workload.
type env struct {
	ds       *dataset.BuiltDataset
	eng      *core.Engine
	matrix   *baselines.Matrix
	dijkstra *baselines.Dijkstra
	propag   *baselines.Propagation
	work     dataset.Workload
}

// envKey identifies a cached environment.
type envKey struct {
	preset   string
	walkL    int
	repCount int
}

// Runner builds and caches experiment environments and dispatches
// experiment IDs to their implementations.
type Runner struct {
	cfg  Config
	envs map[envKey]*env
}

// NewRunner returns a Runner with the given configuration. A zero θ, L
// or R runs at its default; any other out-of-range one is an error.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.fill(); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return &Runner{cfg: cfg, envs: map[envKey]*env{}}, nil
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// environment returns (building and caching if needed) the environment for
// a preset at the given walk length and representative count.
func (r *Runner) environment(presetName string, walkL, repCount int) (*env, error) {
	key := envKey{preset: presetName, walkL: walkL, repCount: repCount}
	if e, ok := r.envs[key]; ok {
		return e, nil
	}
	p, err := dataset.PresetByName(presetName)
	if err != nil {
		return nil, err
	}
	p = p.Scale(r.cfg.Scale)
	ds, err := p.Build()
	if err != nil {
		return nil, err
	}
	opts := r.cfg.Options
	opts.WalkL = walkL
	opts.RCL = rclOptions(repCount, r.cfg.Seed)
	opts.LRW = lrwOptions(repCount)
	eng, err := core.New(ds.Graph, ds.Space, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		return nil, err
	}
	matrix, err := baselines.NewMatrix(ds.Graph, ds.Space, walkL)
	if err != nil {
		return nil, err
	}
	dijkstra, err := baselines.NewDijkstra(ds.Graph, ds.Space, 2)
	if err != nil {
		return nil, err
	}
	propag, err := baselines.NewPropagation(eng.Prop(), ds.Space)
	if err != nil {
		return nil, err
	}
	work, err := dataset.GenerateWorkload(ds.Graph, p.Topics, r.cfg.Queries, r.cfg.Users, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &env{ds: ds, eng: eng, matrix: matrix, dijkstra: dijkstra, propag: propag, work: work}
	r.envs[key] = e
	return e, nil
}

// methodRanker adapts the engine's summarization-based search to the
// baselines.Ranker contract so all five methods share one measurement
// loop.
type methodRanker struct {
	eng *core.Engine
	m   core.Method
}

func (mr methodRanker) TopK(user int32, related []topics.TopicID, k int) ([]search.Result, error) {
	ans, err := mr.eng.Run(context.Background(), core.Query{
		Method: mr.m, Topics: related, User: user, K: k, Fidelity: core.FidelityFull,
	})
	return ans.Ranking(), err
}

// measurement is the outcome of running one ranker over the workload.
type measurement struct {
	avgTime  time.Duration
	allocKB  float64
	rankings map[string][]search.Result // per "query/user" key, full ranking
}

// runWorkload executes every (query, user) pair of the env's workload with
// the ranker, requesting the top maxK topics, and reports average latency,
// allocation churn per query, and the rankings (for precision scoring).
func (r *Runner) runWorkload(e *env, ranker baselines.Ranker, maxK int) (measurement, error) {
	meas := measurement{rankings: map[string][]search.Result{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var total time.Duration
	n := 0
	for _, q := range e.work.Queries {
		related := e.ds.Space.Related(q)
		if len(related) == 0 {
			continue
		}
		for _, u := range e.work.Users {
			start := time.Now()
			res, err := ranker.TopK(int32(u), related, maxK)
			if err != nil {
				return meas, fmt.Errorf("query %q user %d: %w", q, u, err)
			}
			total += time.Since(start)
			n++
			meas.rankings[fmt.Sprintf("%s/%d", q, u)] = res
		}
	}
	runtime.ReadMemStats(&ms1)
	if n > 0 {
		meas.avgTime = total / time.Duration(n)
		meas.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n) / 1024
	}
	return meas, nil
}

// warmSummaries materializes the q-related topic summaries for the env's
// workload so that timed runs measure the online search only (the paper
// pre-materializes the topic-to-representative index offline).
func (r *Runner) warmSummaries(e *env) error {
	for _, q := range e.work.Queries {
		for _, t := range e.ds.Space.Related(q) {
			if _, err := e.eng.Summarize(context.Background(), core.MethodLRW, t); err != nil {
				return err
			}
			if _, err := e.eng.Summarize(context.Background(), core.MethodRCL, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// avgPrecision averages Precision@k over all workload rankings shared by
// got and truth.
func avgPrecision(got, truth measurement, k int) float64 {
	total, n := 0.0, 0
	for key, g := range got.rankings {
		t, ok := truth.rankings[key]
		if !ok {
			continue
		}
		total += Precision(g, t, k)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Experiment is a registry entry.
type Experiment struct {
	ID      string
	Figure  string
	Caption string
	Run     func(*Runner) (Table, error)
}

// Experiments returns the registry in paper order (Figures 5–16).
func Experiments() []Experiment {
	return []Experiment{
		{"fig4", "Figure 4", "Summary of datasets (paper vs reconstruction)", (*Runner).Fig4},
		{"fig5", "Figure 5", "Time cost of PIT-Search using data_2k", (*Runner).Fig5},
		{"fig6", "Figure 6", "Time cost of PIT-Search using data_3m", (*Runner).Fig6},
		{"fig7", "Figure 7", "Time cost for top-100 vs number of representative nodes (data_3m)", (*Runner).Fig7},
		{"fig8", "Figure 8", "Scalability over all datasets, 1000 representatives", (*Runner).Fig8},
		{"fig9", "Figure 9", "Scalability over all datasets, 2000 representatives", (*Runner).Fig9},
		{"fig10", "Figure 10", "Effectiveness of PIT-Search on data_2k (vs BaseMatrix ground truth)", (*Runner).Fig10},
		{"fig11", "Figure 11", "Effectiveness of PIT-Search on data_3m (vs BasePropagation)", (*Runner).Fig11},
		{"fig12", "Figure 12", "Effectiveness vs number of representative nodes (data_3m, k=100)", (*Runner).Fig12},
		{"fig13", "Figure 13", "Space cost with 1000 representatives (k=100)", (*Runner).Fig13},
		{"fig14", "Figure 14", "Space cost with 2000 representatives (k=100)", (*Runner).Fig14},
		{"fig15", "Figure 15", "Index construction vs sample rate (RCL-A) and R (LRW-A)", (*Runner).Fig15},
		{"fig16", "Figure 16", "Index construction time vs L (data_3m)", (*Runner).Fig16},
		{"figS1", "Supplement S1", "Per-topic summarization cost vs |V_t| (crossover behind Figure 15)", (*Runner).FigS1},
		{"figS2", "Supplement S2", "Product-model vs independent-cascade ranking agreement", (*Runner).FigS2},
		{"figS3", "Supplement S3", "Online-search ablation: pruning, depth, frontier budget", (*Runner).FigS3},
	}
}

// Run dispatches an experiment ID ("fig5" … "fig16").
func (r *Runner) Run(id string) (Table, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(r)
		}
	}
	return Table{}, fmt.Errorf("eval: unknown experiment %q", id)
}

// kValuesFor clamps the paper's k values to the number of q-related topics
// available at this scale, deduplicated and sorted.
func (r *Runner) kValuesFor(e *env, paperKs []int) []int {
	maxTopics := 0
	for _, q := range e.work.Queries {
		if n := len(e.ds.Space.Related(q)); n > maxTopics {
			maxTopics = n
		}
	}
	seen := map[int]bool{}
	var ks []int
	for _, k := range paperKs {
		v := k
		if v > maxTopics {
			v = maxTopics
		}
		if v < 1 {
			v = 1
		}
		if !seen[v] {
			seen[v] = true
			ks = append(ks, v)
		}
	}
	sort.Ints(ks)
	return ks
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

// rclOptions derives RCL-A options from a representative-count target: the
// cluster count C_Size is the rep budget (one centroid per cluster).
func rclOptions(repCount int, seed int64) rcl.Options {
	return rclOptionsWithRate(repCount, seed, 0.05)
}

// rclOptionsWithRate additionally fixes the |V′|/|V| sample rate (the
// Figure 15 sweep).
func rclOptionsWithRate(repCount int, seed int64, rate float64) rcl.Options {
	return rcl.Options{CSize: repCount, RepCount: repCount, SampleRate: rate, Seed: seed}
}

// lrwOptions derives LRW-A options from a representative-count target.
// λ = 0.5 keeps the topic prior strong enough that representatives stay
// topic-specific on small, hub-dominated graphs.
func lrwOptions(repCount int) lrw.Options {
	return lrw.Options{RepCount: repCount, Lambda: 0.5}
}
