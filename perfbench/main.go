// Command perfbench is the repository's benchmark: one load-generating
// process that drives the public zaatar API through one of three
// closed-loop workloads, checks every verdict and output against an
// independent reference, and prints every metric by name with its unit.
//
//	perfbench --workload local-batch|wire-sessions|farm-shards \
//	          --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) measures half its window untraced and half traced, attaches
// an internal/obs/trace recorder to every call, stitches the program's
// spans (server spans included) into per-batch trees under the
// benchmark's own spans, and reports the per-layer metrics, a self-time
// attribution table and the tracing overhead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.sh builds and runs it from the root of a checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload from scratch;
// setup_s is their median. The last set-up is the one measured.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: local-batch, wire-sessions or farm-shards")
	seed := flag.Int64("seed", 1, "seed of the input generators")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, os.Stdout)
	if err == nil && ctx.Err() != nil {
		err = errors.New("interrupted")
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, measures one window and
// reports. Errors that leave no measurement (a failed set-up, a soundness
// canary that accepts) are returned; failures inside the window are
// counted and make the result incorrect.
func run(ctx context.Context, name string, seed int64, window time.Duration, traced bool, out io.Writer) (result, error) {
	dir, err := runDir()
	if err != nil {
		return result{}, fmt.Errorf("creating the run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	if err := canaries(ctx, rand.New(rand.NewSource(seed))); err != nil {
		return result{}, err
	}

	var (
		w        workload
		setups   []float64
		compiles []float64
		opens    []float64
		setupMs  []*meter
		total    ledger
	)
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		// Every repetition draws the same inputs; the last one's generator
		// carries on into the window.
		if w, err = newWorkload(name, rand.New(rand.NewSource(seed)), dir); err != nil {
			return result{}, err
		}
		m := newMeter(traced)
		t0 := time.Now()
		compile, err := w.setup(ctx, m)
		d := time.Since(t0)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if m.ledger.failures() > 0 {
			return result{}, fmt.Errorf("set-up: %d warm-up failures", m.ledger.failures())
		}
		total.add(m.ledger)
		setups = append(setups, d.Seconds())
		compiles = append(compiles, ms(compile))
		opens = append(opens, msList(m.opens)...)
		setupMs = append(setupMs, m)
	}

	res := result{Metrics: map[string]metric{}}
	var problems []string
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d window=%v trace=%v\n", name, seed, window, traced)
	if !traced {
		m := newMeter(false)
		if err := w.bind(ctx, m); err != nil {
			return result{}, err
		}
		m.window(ctx, window, w.unit)
		total.add(m.ledger)
		vals := endToEndValues(m, setups)
		for k, v := range vals {
			res.Metrics[k] = metric{Value: v, Unit: unitOf(endToEnd, k)}
		}
		printEndToEnd(out, name, m, vals, opens)
	} else {
		plain := newMeter(false)
		if err := w.bind(ctx, plain); err != nil {
			return result{}, err
		}
		plain.window(ctx, window/2, w.unit)
		total.add(plain.ledger)

		m := newMeter(true)
		c0 := readCounters(w.servers())
		if err := w.bind(ctx, m); err != nil {
			return result{}, err
		}
		m.window(ctx, window/2, w.unit)
		c1 := readCounters(w.servers())
		total.add(m.ledger)

		f := buildForest(m.rec.Snapshot())
		problems = append(problems, f.violations...)
		if d := m.rec.Dropped(); d > 0 {
			problems = append(problems, fmt.Sprintf("trace ring dropped %d records", d))
		}
		var setupRoots []*node
		for _, sm := range setupMs {
			sf := buildForest(sm.rec.Snapshot())
			problems = append(problems, sf.violations...)
			setupRoots = append(setupRoots, sf.roots...)
		}
		var dials []*node
		for _, r := range f.roots {
			if r.rec.Name == spanDial {
				dials = append(dials, r)
			}
		}
		vals := perLayer(layerRun{
			plain: plain, traced: m, batches: f.batches(), dials: dials, setupRoots: setupRoots,
			compiles: compiles, c0: c0, c1: c1, servers: w.servers(),
		})
		for k, v := range vals {
			res.Metrics[k] = metric{Value: v, Unit: unitOf(perLayerDefs, k)}
		}
		printPerLayer(out, vals)
		printAttribution(out, f.batches())
	}

	w.close()
	w = nil
	res.Attempted = total.attempted
	res.Failed = total.failures()
	for _, p := range problems {
		fmt.Fprintln(out, "# attribution check failed:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// endToEndValues computes the bounded end-to-end metrics of an untraced
// window.
func endToEndValues(m *meter, setups []float64) map[string]float64 {
	v := float64(max(m.ledger.verified, 1))
	return map[string]float64{
		"setup_s":             median(setups),
		"batch_p50_ms":        median(msList(m.batchWall)),
		"instances_per_s":     float64(m.ledger.verified) / m.elapsed.Seconds(),
		"cpu_ms_per_instance": ms(m.cpu) / v,
		"peak_rss_mb":         peakRSSMB(),
	}
}

// printEndToEnd writes every end-to-end metric by name and unit, including
// those that only apply to some workloads (and so are not in the JSON
// line, which carries the set every workload reports).
func printEndToEnd(out io.Writer, name string, m *meter, vals map[string]float64, setupOpens []float64) {
	line := func(k string, v float64, unit, note string) {
		fmt.Fprintf(out, "%-28s %14.4f %-6s %s\n", k, v, unit, note)
	}
	for _, d := range endToEnd {
		line(d.name, vals[d.name], d.unit, "")
	}
	walls := msList(m.batchWall)
	if t, ok := tailOf(walls); ok {
		line("batch_tail_ms", t.Value, "ms", fmt.Sprintf("p%g, %d of %d samples beyond", t.P, t.Beyond, t.N))
	} else {
		fmt.Fprintf(out, "%-28s %14s %-6s only %d batches: too few for a tail with %d beyond\n", "batch_tail_ms", "n/a", "ms", t.N, minBeyond)
	}
	v := float64(max(m.ledger.verified, 1))
	if name == "local-batch" {
		line("prover_ms_per_instance", ms(m.proverE2E)/v, "ms", "Σ ProverTimes.E2E() / instances")
		line("verifier_ms_per_instance", ms(m.verifierDur)/v, "ms", "Σ (setup + decommit + verify) / instances")
	} else {
		all := append(append([]float64(nil), setupOpens...), msList(m.opens)...)
		line("session_open_ms", median(all), "ms", fmt.Sprintf("median of %d opens (set-up and window)", len(all)))
		wire := m.windowWire
		line("wire_bytes_per_instance", float64(wire.total())/v, "bytes", fmt.Sprintf("in %d, out %d over the window", wire.in, wire.out))
		if n := int64(len(m.opens)); n > 0 {
			line("wire_bytes_per_session_open", float64(m.openBytes.total()/n), "bytes", fmt.Sprintf("in %d, out %d per open", m.openBytes.in/n, m.openBytes.out/n))
		}
		if n := int64(len(m.batchWall)); n > 0 {
			line("wire_bytes_per_batch", float64(m.batchWire.total()/n), "bytes", fmt.Sprintf("in %d, out %d per batch", m.batchWire.in/n, m.batchWire.out/n))
		}
	}
	line("error_rate", m.ledger.errorRate(), "ratio", fmt.Sprintf("%d failures in %d instances", m.ledger.failures(), m.ledger.attempted))
	for _, p := range wirePrograms {
		if ws := m.byProgram[p.name]; len(ws) > 0 {
			line("batch_p50_ms."+p.name, median(msList(ws)), "ms", fmt.Sprintf("%d batches, %s lane", len(ws), p.backend))
		}
	}
}

func printPerLayer(out io.Writer, vals map[string]float64) {
	for _, d := range perLayerDefs {
		fmt.Fprintf(out, "%-42s %14.4f %-6s → %s\n", d.name, vals[d.name], d.unit, d.moves)
	}
}

// printAttribution writes the self-time tree: for each span path, its self
// time per batch and its share of batch wall.
func printAttribution(out io.Writer, batches []*node) {
	var wall int64
	for _, b := range batches {
		wall += b.rec.Dur
	}
	if wall == 0 {
		return
	}
	n := float64(len(batches))
	fmt.Fprintf(out, "# self time per batch over %d traced batches (share of batch wall; parallel spans can sum past 100%%)\n", len(batches))
	for i, s := range attribution(batches) {
		if i == 30 {
			break
		}
		fmt.Fprintf(out, "#   %6.2f%%  %10.3f ms  %s\n", 100*float64(s.self)/float64(wall), ms(s.self)/n, shortPath(s.path))
	}
}
