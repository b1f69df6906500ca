// Package experiments regenerates the paper's evaluation artifacts: the
// Figure 1 EL-vs-α comparison, the Figure 2 EL-vs-κ sweep, and the §6
// resilience-ordering chain, plus the background [7] comparison (E4) and
// the αᵢ-growth illustration (E6). Each experiment reports rows ready for
// printing or benchmarking; EXPERIMENTS.md records the measured shapes
// against the paper's claims.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"fortress/internal/model"
	"fortress/internal/sim"
	"fortress/internal/xrand"
)

// DefaultAlphas is the α grid used for Figure 1, spanning the paper's
// "realistic range" 10⁻⁵..10⁻² (§5) with three points per decade.
var DefaultAlphas = []float64{
	0.00001, 0.00002, 0.00005,
	0.0001, 0.0002, 0.0005,
	0.001, 0.002, 0.005,
	0.01,
}

// DefaultKappas is the κ grid used for Figure 2.
var DefaultKappas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}

// Figure1Kappa is the indirect-attack coefficient S2PO uses in Figure 1,
// where κ is held fixed while α sweeps.
const Figure1Kappa = 0.5

// Result is one (system, parameter point) cell: the analytic EL when
// available, and the Monte-Carlo estimate when requested or required.
type Result struct {
	System   string
	Alpha    float64
	Kappa    float64
	Analytic float64 // NaN when unavailable (S2SO)
	MC       float64 // NaN when not run
	MCCI     float64
	Trials   uint64
}

// EL returns the best available lifetime: analytic if present, else MC.
func (r Result) EL() float64 {
	if !math.IsNaN(r.Analytic) {
		return r.Analytic
	}
	return r.MC
}

// Config tunes experiment execution.
type Config struct {
	// Trials is the Monte-Carlo budget per cell (0 disables MC for cells
	// that have an analytic value).
	Trials uint64
	// Seed makes runs reproducible.
	Seed uint64
	// LaunchPadFraction overrides the default λ = 0.5 when non-negative.
	LaunchPadFraction float64
	// Workers bounds the total concurrency of a sweep; 0 selects
	// runtime.GOMAXPROCS(0). The budget is split across the two fan-out
	// levels — cells run on up to Workers goroutines, and each cell's trial
	// shards get Workers/numCells (at least 1) engine workers — so a sweep
	// never schedules more than ~Workers CPU-bound goroutines in total. The
	// worker count never affects results: per-cell random streams are split
	// in a fixed order before any cell runs, and each cell's Monte-Carlo
	// goes through the deterministic sharded engine in internal/sim, so a
	// sweep is reproducible from (Seed, Trials) alone.
	Workers int
}

// simConfig is the per-cell engine configuration.
func (c Config) simConfig() sim.Config {
	return sim.Config{Workers: c.Workers}
}

func (c Config) params(alpha, kappa float64) model.Params {
	p := model.DefaultParams(alpha, kappa)
	if c.LaunchPadFraction >= 0 {
		p.LaunchPadFraction = c.LaunchPadFraction
	}
	return p
}

// evaluate fills one Result for the given system.
func evaluate(sys model.System, alpha, kappa float64, cfg Config, rng *xrand.RNG) (Result, error) {
	r := Result{System: sys.Name(), Alpha: alpha, Kappa: kappa, Analytic: math.NaN(), MC: math.NaN()}
	el, err := sys.AnalyticEL()
	switch {
	case err == nil:
		r.Analytic = el
	case errors.Is(err, model.ErrAnalyticUnavailable):
		// fall through to MC, which is then mandatory
		if cfg.Trials == 0 {
			return r, fmt.Errorf("experiments: %s requires Monte-Carlo trials", sys.Name())
		}
	default:
		return r, fmt.Errorf("experiments: %s analytic: %w", sys.Name(), err)
	}
	if cfg.Trials > 0 {
		est, err := sim.Estimator(sys, cfg.Trials, rng, cfg.simConfig())
		if err != nil {
			return r, fmt.Errorf("experiments: %s monte-carlo: %w", sys.Name(), err)
		}
		r.MC = est.EL
		r.MCCI = est.CI95
		r.Trials = est.Trials
	}
	return r, nil
}

// sweepCell is one (system, parameter point) unit of a sweep, with its
// random stream pre-split in grid order so cells can run concurrently
// without the schedule leaking into the results.
type sweepCell struct {
	sys   model.System
	alpha float64
	kappa float64
	cfg   Config
	rng   *xrand.RNG
}

// innerWorkers divides a sweep's worker budget between the cell fan-out and
// each cell's trial-shard engine: with the outer pool already `workers`
// wide, each cell gets workers/cells shard workers (at least 1), keeping
// total leaf concurrency within the budget while still filling cores when
// the grid is smaller than the machine.
func innerWorkers(workers, cells int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cells < 1 {
		cells = 1
	}
	inner := workers / cells
	if inner < 1 {
		inner = 1
	}
	return inner
}

// runCells evaluates every cell on a bounded worker pool and returns the
// results in cell order. The shard budget is divided among the cells that
// actually run Monte-Carlo — analytic-only cells finish in microseconds and
// must not dilute it.
func runCells(cells []sweepCell, workers int) ([]Result, error) {
	mcCells := 0
	for _, c := range cells {
		if c.cfg.Trials > 0 {
			mcCells++
		}
	}
	inner := innerWorkers(workers, mcCells)
	out := make([]Result, len(cells))
	err := sim.ForEach(len(cells), workers, func(i int) error {
		c := cells[i]
		cc := c.cfg
		cc.Workers = inner
		res, err := evaluate(c.sys, c.alpha, c.kappa, cc, c.rng)
		out[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure1 regenerates the paper's Figure 1: EL for the five compared
// systems across the α range, κ fixed at Figure1Kappa for S2PO. Cells fan
// out across cfg.Workers concurrently.
func Figure1(cfg Config, alphas []float64) ([]Result, error) {
	if len(alphas) == 0 {
		alphas = DefaultAlphas
	}
	rng := xrand.New(cfg.Seed)
	var cells []sweepCell
	for _, alpha := range alphas {
		p := cfg.params(alpha, Figure1Kappa)
		systems := []model.System{
			model.S0PO{P: p},
			model.S2PO{P: p},
			model.S1PO{P: p},
			model.S1SO{P: p},
			model.S0SO{P: p},
		}
		for _, sys := range systems {
			// PO systems at tiny α have hazards far below 1/trials; MC adds
			// nothing there, so spend trials only where they resolve.
			c := cfg
			if _, isPO := sys.(model.StepSystem); isPO && alpha < 0.001 {
				c.Trials = 0
			}
			cells = append(cells, sweepCell{sys, alpha, Figure1Kappa, c, rng.Split()})
		}
	}
	return runCells(cells, cfg.Workers)
}

// Figure2 regenerates the paper's Figure 2: EL of S2PO as κ varies, one
// series per α (log-scale in the paper; we emit raw values). Cells fan out
// across cfg.Workers concurrently.
func Figure2(cfg Config, alphas, kappas []float64) ([]Result, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.0001, 0.001, 0.01}
	}
	if len(kappas) == 0 {
		kappas = DefaultKappas
	}
	rng := xrand.New(cfg.Seed + 2)
	var cells []sweepCell
	for _, alpha := range alphas {
		for _, kappa := range kappas {
			p := cfg.params(alpha, kappa)
			c := cfg
			if alpha < 0.001 {
				c.Trials = 0
			}
			cells = append(cells, sweepCell{model.S2PO{P: p}, alpha, kappa, c, rng.Split()})
		}
	}
	return runCells(cells, cfg.Workers)
}

// OrderingReport is the outcome of checking the §6 summary chain
// S0PO →(κ>0) S2PO →(κ≤0.9) S1PO → S1SO → S0SO.
type OrderingReport struct {
	Alpha  float64
	Kappa  float64
	Order  []string  // systems sorted by measured EL, best first
	ELs    []float64 // matching lifetimes
	Holds  bool      // true when the paper's chain is reproduced
	Detail string
}

// OrderingChain verifies the §6 chain at the given parameter point. The
// five systems are evaluated concurrently across cfg.Workers; each system
// uses its analytic EL when available and falls back to Monte-Carlo (on its
// own pre-split random stream) otherwise.
func OrderingChain(cfg Config, alpha, kappa float64) (OrderingReport, error) {
	rng := xrand.New(cfg.Seed + 3)
	p := cfg.params(alpha, kappa)
	systems := []model.System{
		model.S0PO{P: p},
		model.S2PO{P: p},
		model.S1PO{P: p},
		model.S1SO{P: p},
		model.S0SO{P: p},
	}
	rep := OrderingReport{Alpha: alpha, Kappa: kappa}
	type cell struct {
		name string
		el   float64
	}
	mcCfg := cfg
	mcCfg.Workers = innerWorkers(cfg.Workers, len(systems))
	analyticOnly := mcCfg
	analyticOnly.Trials = 0
	rngs := sim.SplitRNGs(rng, len(systems))
	cells := make([]cell, len(systems))
	err := sim.ForEach(len(systems), cfg.Workers, func(i int) error {
		sys := systems[i]
		res, err := evaluate(sys, alpha, kappa, analyticOnly, rngs[i])
		if err != nil {
			if cfg.Trials == 0 {
				return err
			}
			res, err = evaluate(sys, alpha, kappa, mcCfg, rngs[i])
			if err != nil {
				return err
			}
		}
		cells[i] = cell{sys.Name(), res.EL()}
		return nil
	})
	if err != nil {
		return rep, err
	}
	expected := make([]string, len(cells))
	for i, c := range cells {
		expected[i] = c.name
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].el > cells[j].el })
	rep.Order = make([]string, len(cells))
	rep.ELs = make([]float64, len(cells))
	for i, c := range cells {
		rep.Order[i] = c.name
		rep.ELs[i] = c.el
	}
	rep.Holds = true
	for i := range expected {
		if rep.Order[i] != expected[i] {
			rep.Holds = false
		}
	}
	if rep.Holds {
		rep.Detail = fmt.Sprintf("chain holds: %s", strings.Join(rep.Order, " → "))
	} else {
		rep.Detail = fmt.Sprintf("chain BROKEN: measured %s, expected %s",
			strings.Join(rep.Order, " → "), strings.Join(expected, " → "))
	}
	return rep, nil
}

// FortifyComparison is E4: fortified-PB-under-SO (the [7] construction)
// versus proactively recovered SMR, across κ.
type FortifyComparison struct {
	Alpha   float64
	Kappa   float64
	S2SO    float64
	S2SOCI  float64
	S0SO    float64
	Outlive bool // S2SO ≥ S0SO within CI
}

// Fortify runs E4 at one α across the κ grid. The κ cells fan out across
// cfg.Workers concurrently, each on its own pre-split random stream.
func Fortify(cfg Config, alpha float64, kappas []float64) ([]FortifyComparison, error) {
	if len(kappas) == 0 {
		kappas = DefaultKappas
	}
	trials := cfg.Trials
	if trials == 0 {
		trials = 100000
	}
	rng := xrand.New(cfg.Seed + 4)
	rngs := sim.SplitRNGs(rng, len(kappas))
	engine := sim.Config{Workers: innerWorkers(cfg.Workers, len(kappas))}
	out := make([]FortifyComparison, len(kappas))
	err := sim.ForEach(len(kappas), cfg.Workers, func(i int) error {
		kappa := kappas[i]
		p := cfg.params(alpha, kappa)
		est, err := sim.EstimateSO(model.S2SO{P: p}, trials, rngs[i], engine)
		if err != nil {
			return err
		}
		s0, err := model.S0SO{P: p}.AnalyticEL()
		if err != nil {
			return err
		}
		out[i] = FortifyComparison{
			Alpha: alpha, Kappa: kappa,
			S2SO: est.EL, S2SOCI: est.CI95, S0SO: s0,
			Outlive: est.EL+est.CI95 >= s0,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AlphaGrowthRow is E6: the per-step success probability αᵢ of an SO
// defender versus the constant α of a PO defender.
type AlphaGrowthRow struct {
	Step    int
	AlphaSO float64
	AlphaPO float64
}

// AlphaGrowth tabulates αᵢ for the first `steps` unit time-steps.
func AlphaGrowth(alpha float64, steps int) ([]AlphaGrowthRow, error) {
	p := model.DefaultParams(alpha, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	omega := p.Omega()
	out := make([]AlphaGrowthRow, 0, steps)
	for i := 0; i < steps; i++ {
		remaining := float64(p.Chi) - float64(i)*float64(omega)
		ai := 1.0
		if remaining > float64(omega) {
			ai = float64(omega) / remaining
		}
		out = append(out, AlphaGrowthRow{Step: i + 1, AlphaSO: ai, AlphaPO: p.EffectiveAlpha()})
	}
	return out, nil
}

// FormatResults renders results as an aligned text table, one row per cell.
func FormatResults(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-6s %-14s %-14s %-10s\n", "system", "alpha", "kappa", "analyticEL", "mcEL", "mcCI95")
	for _, r := range results {
		analytic, mc, ci := "-", "-", "-"
		if !math.IsNaN(r.Analytic) {
			analytic = fmt.Sprintf("%.6g", r.Analytic)
		}
		if !math.IsNaN(r.MC) {
			mc = fmt.Sprintf("%.6g", r.MC)
			ci = fmt.Sprintf("%.3g", r.MCCI)
		}
		fmt.Fprintf(&b, "%-6s %-10g %-6g %-14s %-14s %-10s\n", r.System, r.Alpha, r.Kappa, analytic, mc, ci)
	}
	return b.String()
}
