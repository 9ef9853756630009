// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (fleet, queries or deploy; see README.md) for a given
// number of seconds, checks that every fired window is right, and
// prints its metrics. With -trace 0 the last line carries the
// end-to-end metrics of the untraced run; with -trace 1 it carries the
// per-layer metrics of a separate traced run over the same rounds.
//
//	perfbench -workload fleet -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privapprox/internal/client"
	"privapprox/internal/query"
)

func main() {
	name := flag.String("workload", "fleet", "workload: fleet, queries or deploy")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds of timed epochs to run")
	trace := flag.Int("trace", 0, "1 = report the per-layer metrics of a traced run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory for WALs and span dumps")
	flag.Parse()

	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	if err := run(sp, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fail(err)
	}
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes untraced rounds until their timed phases reach seconds,
// then replays round 0 traced; its windows must match, which checks the
// traced assembly on every run. With traced set, every untraced round is
// followed by its traced replay, so machine drift during the run hits
// both sides of trace.overhead_ratio alike, and the untraced rounds stop
// at half the seconds, so a traced run takes about as long as an
// untraced one.
func run(sp spec, seed int64, seconds int, traced bool, workdir string) error {
	ctx := newRunContext(sp.name, seed, seconds, traced)
	budget := time.Duration(seconds) * time.Second
	if traced {
		budget /= 2
	}
	tr, lay := newTracer(), &layerStats{}
	var untracedWall time.Duration
	replay := func(r int, want *round) error {
		rd, queries, err := runAssemblyRound(sp, roundSeed(seed, r), workdir, tr, lay)
		if err != nil {
			return fmt.Errorf("traced round %d: %w", r, err)
		}
		if err := rd.check(sp, queries); err != nil {
			return failCheck(fmt.Errorf("traced round %d: %w", r, err), rd)
		}
		if rd.digest() != want.digest() {
			return failCheck(fmt.Errorf("traced round %d fired different windows than the untraced round", r), rd)
		}
		untracedWall += want.timed.wall
		return nil
	}
	var rounds []*round
	var timed time.Duration
	for r := 0; timed < budget || len(rounds) < 2; r++ {
		rd, queries, err := untracedRound(sp, roundSeed(seed, r), workdir)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if err := rd.check(sp, queries); err != nil {
			return failCheck(fmt.Errorf("round %d: %w", r, err), rd)
		}
		rounds = append(rounds, rd)
		timed += rd.timed.wall
		if traced {
			if err := replay(r, rd); err != nil {
				return err
			}
		}
	}
	// Read before the check replay below: the untraced rounds' peak.
	rss := vmHWM()
	if !traced {
		if err := replay(0, rounds[0]); err != nil {
			return err
		}
	}
	ctx.Rounds, ctx.Epochs = len(rounds), len(rounds)*(sp.epochs-sp.warm)

	var sent int64
	for _, rd := range rounds {
		sent += rd.sent
	}
	ctxLine, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", ctxLine)
	var metrics map[string]metric
	if traced {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, seed))
		if err := tr.dump(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		metrics = layerMetrics(sp, tr.totals(int64(sp.warm)), lay, untracedWall)
		printLayerTable(sp, tr.totals(int64(sp.warm)), metrics)
	} else {
		metrics = endToEnd(rounds, rss)
		printEndToEnd(sp, rounds, metrics)
	}
	out, err := json.Marshal(report{Correct: true, Attempted: sent, Failed: 0, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// failCheck prints a failing result line and returns the check error.
func failCheck(err error, rd *round) error {
	failed := rd.sent - rd.decoded + rd.dropped
	if failed <= 0 {
		failed = 1
	}
	out, _ := json.Marshal(report{Correct: false, Attempted: max(rd.sent, 1), Failed: failed, Metrics: map[string]metric{}})
	fmt.Println(string(out))
	return fmt.Errorf("correctness check failed: %w", err)
}

// untracedRound runs one round of the product path: privapprox.NewSystem
// for the in-process workloads, the node assembly for deploy.
func untracedRound(sp spec, seed int64, workdir string) (*round, []*query.Query, error) {
	if sp.deploy {
		return runAssemblyRound(sp, seed, workdir, nil, nil)
	}
	return runSystemRound(sp, seed)
}

// runAssemblyRound runs one round on the hand-wired assembly: traced
// when tr is set, and the deploy workload's untraced rounds otherwise.
func runAssemblyRound(sp spec, seed int64, workdir string, tr *tracer, lay *layerStats) (*round, []*query.Query, error) {
	runtime.GC()
	r := &round{}
	t0 := time.Now()
	a, err := newAssembly(sp, seed, workdir, tr, lay)
	if err != nil {
		return nil, nil, err
	}
	defer a.close()
	r.setup = time.Since(t0)

	var gc0, cpu0 float64
	starts := make([]time.Time, sp.epochs)
	var p0 procSample
	for e := range starts {
		if e == sp.warm {
			p0 = sampleProc()
			if lay != nil {
				_, gc0, cpu0 = runtimeState()
			}
		}
		starts[e] = time.Now()
		res, err := a.runEpoch(e)
		at := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		if e >= sp.warm {
			r.epochMs = append(r.epochMs, float64(at.Sub(starts[e]))/1e6)
		}
		r.collect(res, e, sp.warm, at, starts)
	}
	p1 := sampleProc()
	r.timed.add(p0, p1)
	ckpt, err := a.agg.Checkpoint(nil)
	if err != nil {
		return nil, nil, err
	}
	p2 := sampleProc()
	final, err := a.finish()
	if err != nil {
		return nil, nil, err
	}
	r.timed.add(p2, sampleProc())
	r.collect(final, -1, sp.warm, time.Time{}, starts)

	r.sent = client.SumStats(a.clients).AnswersSent
	st := a.agg.Stats()
	r.decoded, r.dropped = st.Decoded, st.Dropped()
	for _, b := range a.brokers {
		a.retained = append(a.retained, b.Stats().MessagesIn)
	}
	if lay != nil {
		heap, gc1, cpu1 := runtimeState()
		lay.gcCPU += gc1 - gc0
		lay.totalCPU += cpu1 - cpu0
		lay.heapEnd = heap
		lay.slots += int64(sp.clients * sp.epochs * sp.queries)
		lay.sent += r.sent
		lay.decoded += r.decoded
		lay.dropped += r.dropped
		for _, n := range a.retained {
			lay.retained += n
		}
		if sp.deploy {
			lay.walShares += r.sent * proxies
		}
		lay.tracedWall += r.timed.wall
		lay.rounds++
	}
	if r.restart, err = a.restart(ckpt); err != nil {
		return nil, nil, err
	}
	return r, a.queries, nil
}
