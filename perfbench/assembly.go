package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
	"privapprox/internal/wal"
	"privapprox/internal/xorcrypt"
)

// assembly is the pipeline wired by hand from the layers' public entry
// points. For the in-process workloads it mirrors the wiring core.New
// does (client seeds, seeded message IDs, legacy subscription or the
// registry → control topic → follower path, one drain goroutine per
// proxy consumer, the telemetry core attaches to the aggregator), so
// the traced run can time every call into a layer and still fire
// byte-identical windows. A change to core.New's wiring must be
// mirrored here.
//
// For deploy it is the node topology in one process: durable brokers
// served on loopback, clients flushing a client.Batcher per proxy over
// one TCP connection each, and an aggregator polling over its own
// connection per proxy.
//
// With tr nil the assembly runs untraced (the deploy workload's
// untraced rounds). With a tracer, every call into a layer is timed
// and fire is moved out of the drain into an explicit AdvanceTo at the
// epoch boundary, so it gets its own span; the windows that fire, and
// their order, are the same.
type assembly struct {
	sp      spec
	seed    int64
	queries []*query.Query
	workers int
	tr      *tracer
	lay     *layerStats

	clients   []*client.Client
	taps      []*clientTap
	fleet     *proxy.Fleet // the clients' view of the proxies
	aggFleet  *proxy.Fleet // the aggregator's view: fleet itself in process
	brokers   []*pubsub.Broker
	batchers  []*client.Batcher
	proxyTaps []*proxyTap
	consumers []*pubsub.Consumer
	agg       *aggregator.Aggregator
	telTracer *telemetry.Tracer
	follower  *engine.Follower

	dir     string
	servers []*pubsub.Server
	conns   []*pubsub.Client
	// retained is the number of records each broker held when the
	// round's epochs ended: what a restart replays.
	retained []int64
}

// layerStats gathers what the traced rounds measure besides spans.
type layerStats struct {
	slots      int64 // answer opportunities: clients × epochs × queries
	sent       int64
	emptyPolls int64
	backlogMax int64
	retained   int64 // records held by the brokers at round end, summed over rounds
	pendingMax int
	openMax    int
	decoded    int64
	dropped    int64
	walBytes   int64
	walShares  int64
	windows    int64
	epochs     int64
	gcCPU      float64
	totalCPU   float64
	heapEnd    uint64
	tracedWall time.Duration
	rounds     int
}

// newAssembly builds one round's pipeline. Everything it does counts as
// set-up.
func newAssembly(sp spec, seed int64, workdir string, tr *tracer, lay *layerStats) (_ *assembly, err error) {
	queries, err := sp.buildQueries()
	if err != nil {
		return nil, err
	}
	a := &assembly{sp: sp, seed: seed, queries: queries, workers: runtime.GOMAXPROCS(0), tr: tr, lay: lay}
	defer func() {
		if err != nil {
			a.close()
		}
	}()
	if sp.deploy {
		if err := a.startProxies(workdir); err != nil {
			return nil, err
		}
	} else {
		if a.fleet, err = proxy.NewFleet(proxies, partitions); err != nil {
			return nil, err
		}
		a.aggFleet = a.fleet
		for i := 0; i < proxies; i++ {
			a.brokers = append(a.brokers, a.fleet.Proxy(i).Broker())
		}
	}
	if a.consumers, err = a.aggFleet.Consumers("aggregator"); err != nil {
		return nil, err
	}
	if a.agg, err = newAggregator(sp, seed, queries); err != nil {
		return nil, err
	}
	// The telemetry core.New attaches: fire spans, result cards and the
	// brokers' publish histogram.
	tel := telemetry.NewRegistry()
	a.telTracer = telemetry.NewTracer()
	a.agg.SetTracer(a.telTracer)
	rec, err := lineage.NewRecorder(lineage.Options{Registry: tel, Tracer: a.telTracer})
	if err != nil {
		return nil, err
	}
	a.agg.SetCardSink(rec)
	pubHist := tel.Histogram("privapprox_publish_ns")
	for _, b := range a.brokers {
		b.SetPublishHistogram(pubHist)
	}

	sinks := make([]client.ShareSink, proxies)
	for i := range sinks {
		sinks[i] = a.fleet.Proxy(i)
		if sp.deploy {
			var batchSink client.BatchSink = a.fleet.Proxy(i)
			if tr != nil {
				pt := &proxyTap{p: a.fleet.Proxy(i), t: tr}
				a.proxyTaps = append(a.proxyTaps, pt)
				batchSink = pt
			}
			b := client.NewBatcher(batchSink, 0)
			a.batchers = append(a.batchers, b)
			sinks[i] = b
		}
	}
	return a, a.startClients(sinks)
}

// startProxies opens one durable broker per proxy, serves it on
// loopback and dials it twice: once for the clients, once for the
// aggregator.
func (a *assembly) startProxies(workdir string) error {
	a.dir = filepath.Join(workdir, fmt.Sprintf("%s-%d", a.sp.name, a.seed))
	if err := os.RemoveAll(a.dir); err != nil {
		return err
	}
	var addrs []string
	for i := 0; i < proxies; i++ {
		b, err := openProxyBroker(a.dir, i)
		if err != nil {
			return err
		}
		a.brokers = append(a.brokers, b)
		srv, err := pubsub.Serve(b, "127.0.0.1:0")
		if err != nil {
			return err
		}
		a.servers = append(a.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	var err error
	if a.fleet, err = a.dial(addrs); err != nil {
		return err
	}
	a.aggFleet, err = a.dial(addrs)
	return err
}

// openProxyBroker opens (or reopens) proxy i's durable broker and
// makes sure its topics exist, as a proxy node does at start-up.
func openProxyBroker(dir string, i int) (*pubsub.Broker, error) {
	b, err := pubsub.OpenBroker(filepath.Join(dir, fmt.Sprintf("proxy-%d", i)), wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		return nil, err
	}
	for _, t := range []struct {
		name  string
		parts int
	}{{proxy.TopicFor(i), partitions}, {proxy.TopicControl, 1}, {proxy.TopicLineage, 1}} {
		if err := b.CreateTopic(t.name, t.parts); err != nil && !errors.Is(err, pubsub.ErrTopicExists) {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// dial opens one connection per proxy and binds a fleet to them.
func (a *assembly) dial(addrs []string) (*proxy.Fleet, error) {
	var ts []pubsub.Transport
	for _, addr := range addrs {
		c, err := pubsub.DialOptions(addr, pubsub.Options{Conns: 1, Seed: a.seed})
		if err != nil {
			return nil, err
		}
		a.conns = append(a.conns, c)
		ts = append(ts, c)
	}
	return proxy.AttachFleet(ts)
}

// startClients builds the client population and distributes the
// queries to it.
func (a *assembly) startClients(sinks []client.ShareSink) error {
	sp, params := a.sp, a.sp.params()
	priv := analystKey()
	pub := priv.Public().(ed25519.PublicKey)
	signed := make([]*query.Signed, len(a.queries))
	for i, q := range a.queries {
		s, err := query.Sign(q, priv)
		if err != nil {
			return err
		}
		signed[i] = s
	}
	subs := make([]engine.Subscriber, sp.clients)
	for i := 0; i < sp.clients; i++ {
		db := minisql.NewDB()
		if err := populate(a.seed, i, db); err != nil {
			return err
		}
		cs := sinks
		if a.tr != nil {
			tap := &clientTap{t: a.tr}
			a.taps = append(a.taps, tap)
			cs = make([]client.ShareSink, len(sinks))
			for k, s := range sinks {
				cs[k] = sinkTap{next: s, tap: tap}
			}
		}
		cfg := client.Config{
			ID:        clientID(i),
			DB:        db,
			Sinks:     cs,
			Seed:      a.seed + int64(i) + 2,
			MIDSource: rand.New(rand.NewSource(a.seed + (int64(i)+1)*1_000_003)),
		}
		if !sp.multi {
			cfg.AnalystKey = pub
		}
		c, err := client.New(cfg)
		if err != nil {
			return err
		}
		if !sp.multi {
			if err := c.Subscribe(signed[0], params); err != nil {
				return err
			}
		}
		a.clients = append(a.clients, c)
		subs[i] = c
	}
	if !sp.multi {
		return nil
	}
	reg := engine.NewRegistry()
	if err := reg.AttachSink(a.fleet); err != nil {
		return err
	}
	cc, err := a.fleet.Proxy(0).ControlConsumer("clients")
	if err != nil {
		return err
	}
	a.follower = engine.NewFollower(cc, engine.NewApplier(subs...))
	for _, s := range signed {
		if err := reg.Trust(s.Query.QID.Analyst, pub); err != nil {
			return err
		}
		if err := reg.Register(s, params); err != nil {
			return err
		}
		if _, err := a.follower.Sync(); err != nil {
			return err
		}
	}
	if n := a.follower.Applier().ActiveQueries(); n != len(a.queries) {
		return fmt.Errorf("clients picked up %d of %d queries", n, len(a.queries))
	}
	return nil
}

// runEpoch is one closed-loop epoch: answer, flush (deploy), fire
// (traced), drain. It returns the windows that fired.
func (a *assembly) runEpoch(e int) ([]aggregator.Result, error) {
	tr, ep := a.tr, -1
	if tr != nil {
		ep = tr.open("epoch", -1, int64(e))
	}
	if a.follower != nil {
		if _, err := a.follower.Sync(); err != nil {
			return nil, err
		}
	}
	a.telTracer.BeginEpoch(uint64(e))
	for _, b := range a.batchers {
		b.BeginEpoch(uint64(e))
	}
	ph, alloc := a.openPhase("answer", ep, e)
	answers, err := a.answerAll(uint64(e), ph)
	a.closePhase(ph, alloc, answers)
	if err != nil {
		return nil, err
	}
	if a.sp.deploy {
		ph, alloc = a.openPhase("flush", ep, e)
		shares, err := a.flush(ph, e)
		a.closePhase(ph, alloc, shares)
		if err != nil {
			return nil, err
		}
	}
	var fired []aggregator.Result
	if tr != nil {
		if e >= a.sp.warm {
			a.sampleBacklog()
		}
		ph, alloc = a.openPhase("fire", ep, e)
		from := tr.now()
		res, err := a.agg.AdvanceTo(origin.Add(time.Duration(e) * freq))
		var fa acc
		fa.add(from, tr.now(), int64(len(res)))
		tr.fold("aggregator.fire", ph, int64(e), -1, &fa)
		a.closePhase(ph, alloc, int64(len(res)))
		if err != nil {
			return nil, err
		}
		fired = res
	}
	ph, alloc = a.openPhase("drain", ep, e)
	res, shares, err := a.drain(ph, e)
	a.closePhase(ph, alloc, shares)
	if err != nil {
		return nil, err
	}
	fired = append(fired, res...)
	if tr != nil {
		if e >= a.sp.warm {
			a.lay.openMax = max(a.lay.openMax, a.agg.OpenWindows())
			a.lay.windows += int64(len(fired))
			a.lay.epochs++
		}
		tr.close(ep, answers)
	}
	return fired, nil
}

func (a *assembly) openPhase(name string, parent, e int) (int, uint64) {
	if a.tr == nil {
		return -1, 0
	}
	return a.tr.open(name, parent, int64(e)), heapAllocs()
}

func (a *assembly) closePhase(i int, alloc0 uint64, count int64) {
	if a.tr == nil {
		return
	}
	a.tr.spans[i].Alloc = int64(heapAllocs() - alloc0)
	a.tr.close(i, count)
}

func (a *assembly) sampleBacklog() {
	var total int64
	for _, b := range a.brokers {
		total += b.Stats().TotalBacklog
	}
	a.lay.backlogMax = max(a.lay.backlogMax, total)
}

// answerAll fans AnswerOnce over the clients on a fixed worker pool, as
// core.System does. Traced, each worker sums its AnswerOnce calls and
// the sink calls made inside them into one span each; it returns the
// number of answers sent (0 untraced).
func (a *assembly) answerAll(epoch uint64, phase int) (int64, error) {
	workers := min(a.workers, len(a.clients))
	type workerAcc struct{ answer, sink acc }
	accs := make([]workerAcc, workers)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wa *workerAcc) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(a.clients) || failed.Load() {
					return
				}
				var err error
				if a.tr == nil {
					_, err = a.clients[i].AnswerOnce(epoch)
				} else {
					a.taps[i].cur = &wa.sink
					before := wa.sink.count
					from := a.tr.now()
					_, err = a.clients[i].AnswerOnce(epoch)
					wa.answer.add(from, a.tr.now(), (wa.sink.count-before)/proxies)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}(&accs[w])
	}
	wg.Wait()
	if a.tr == nil {
		return 0, first
	}
	sinkName := "proxy.submit"
	if a.sp.deploy {
		sinkName = "client.batch"
	}
	var answers int64
	for w := range accs {
		ci := a.tr.fold("client.answer", phase, int64(epoch), w, &accs[w].answer)
		a.tr.fold(sinkName, ci, int64(epoch), w, &accs[w].sink)
		answers += accs[w].answer.count
	}
	return answers, first
}

// flush sends every batcher's epoch frame, proxy by proxy, and returns
// the number of shares flushed (traced; 0 untraced).
func (a *assembly) flush(phase, e int) (int64, error) {
	var total int64
	for i, b := range a.batchers {
		if a.tr == nil {
			if err := b.Flush(); err != nil {
				return 0, fmt.Errorf("flush proxy %d: %w", i, err)
			}
			continue
		}
		pending := int64(b.Pending())
		from := a.tr.now()
		err := b.Flush()
		var fa acc
		fa.add(from, a.tr.now(), pending)
		fi := a.tr.fold("client.flush", phase, int64(e), i, &fa)
		pt := a.proxyTaps[i]
		a.tr.fold("proxy.submit", fi, int64(e), i, &pt.acc)
		pt.acc = acc{}
		total += pending
		if err != nil {
			return total, fmt.Errorf("flush proxy %d: %w", i, err)
		}
	}
	return total, nil
}

// drain polls every proxy consumer on its own goroutine until it runs
// dry, decoding each batch and submitting it to the aggregator in one
// call, as core.System's parallel drain does. It returns the fired
// windows in window-start order and the number of shares drained
// (traced; 0 untraced).
func (a *assembly) drain(phase, e int) ([]aggregator.Result, int64, error) {
	type drainAcc struct {
		poll, decode, join acc
		empty              int64
		pending            int
		fired              []aggregator.Result
		err                error
	}
	accs := make([]drainAcc, len(a.consumers))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for src, c := range a.consumers {
		wg.Add(1)
		go func(src int, c *pubsub.Consumer, da *drainAcc) {
			defer wg.Done()
			var shares []xorcrypt.Share
			for !failed.Load() {
				var t0 int64
				if a.tr != nil {
					t0 = a.tr.now()
				}
				recs, err := c.Poll(4096)
				if err != nil {
					da.err = err
					failed.Store(true)
					return
				}
				var t1 int64
				if a.tr != nil {
					t1 = a.tr.now()
					da.poll.add(t0, t1, int64(len(recs)))
					if len(recs) == 0 {
						da.empty++
					}
				}
				if len(recs) == 0 {
					return
				}
				shares = shares[:0]
				var decErr error
				for _, rec := range recs {
					sh, err := proxy.DecodeRecord(rec)
					if err != nil {
						decErr = err
						break
					}
					shares = append(shares, sh)
				}
				var t2 int64
				if a.tr != nil {
					t2 = a.tr.now()
					da.decode.add(t1, t2, int64(len(recs)))
				}
				res, err := a.agg.SubmitShareBatch(shares, src, time.Now())
				if a.tr != nil {
					da.join.add(t2, a.tr.now(), int64(len(shares)))
					da.pending = max(da.pending, a.agg.PendingJoins())
				}
				clear(shares)
				da.fired = append(da.fired, res...)
				if err == nil {
					err = decErr
				}
				if err != nil {
					da.err = err
					failed.Store(true)
					return
				}
			}
		}(src, c, &accs[src])
	}
	wg.Wait()
	var fired []aggregator.Result
	var shares int64
	var err error
	for src := range accs {
		da := &accs[src]
		fired = append(fired, da.fired...)
		if da.err != nil && err == nil {
			err = fmt.Errorf("drain proxy %d: %w", src, da.err)
		}
		if a.tr != nil && phase >= 0 && e >= a.sp.warm {
			a.tr.fold("pubsub.poll", phase, int64(e), src, &da.poll)
			a.tr.fold("proxy.decode", phase, int64(e), src, &da.decode)
			a.tr.fold("aggregator.join", phase, int64(e), src, &da.join)
			a.lay.emptyPolls += da.empty
			a.lay.pendingMax = max(a.lay.pendingMax, da.pending)
		}
		shares += da.join.count
	}
	aggregator.SortResults(fired, a.agg.QueryOrder())
	return fired, shares, err
}

// finish is the end of a round: drain what is left and close every
// open window. It returns the final windows. Its drain belongs to no
// epoch and records no spans.
func (a *assembly) finish() ([]aggregator.Result, error) {
	res, _, err := a.drain(-1, -1)
	if err != nil {
		return nil, err
	}
	final, err := a.agg.Flush()
	if err != nil {
		return nil, err
	}
	out := append(res, final...)
	aggregator.SortResults(out, a.agg.QueryOrder())
	return out, nil
}

// restart is a restart of the round's servers: on deploy both proxies
// reopen their brokers from the WALs, serve again and answer a first
// fetch; on every workload the aggregator is rebuilt from ckpt. It
// returns the time until all of that is done.
func (a *assembly) restart(ckpt []byte) (time.Duration, error) {
	if a.sp.deploy {
		a.closeNet()
		if a.lay != nil {
			n, err := dirSize(a.dir)
			if err != nil {
				return 0, err
			}
			a.lay.walBytes += n
		}
	}
	rs := -1
	if a.tr != nil {
		rs = a.tr.open("restart", -1, -1)
	}
	t0 := time.Now()
	if a.sp.deploy {
		for i := 0; i < proxies; i++ {
			if err := a.reopenProxy(i, rs); err != nil {
				return 0, err
			}
		}
	}
	var from int64
	if a.tr != nil {
		from = a.tr.now()
	}
	if _, err := restoreAggregator(a.sp, a.seed, a.queries, ckpt); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if a.tr != nil {
		var ra acc
		ra.add(from, a.tr.now(), 1)
		a.tr.fold("aggregator.restore", rs, -1, -1, &ra)
		a.tr.close(rs, 1)
	}
	return d, nil
}

// reopenProxy replays proxy i's broker from its WALs, serves it and
// fetches the first record of its share topic over TCP.
func (a *assembly) reopenProxy(i, parent int) error {
	var from int64
	if a.tr != nil {
		from = a.tr.now()
	}
	b, err := openProxyBroker(a.dir, i)
	if err != nil {
		return err
	}
	a.brokers = append(a.brokers, b)
	if a.tr != nil {
		var ra acc
		ra.add(from, a.tr.now(), a.retained[i])
		a.tr.fold("wal.replay", parent, -1, i, &ra)
		from = a.tr.now()
	}
	srv, err := pubsub.Serve(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	a.servers = append(a.servers, srv)
	c, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: 1, Seed: a.seed})
	if err != nil {
		return err
	}
	a.conns = append(a.conns, c)
	recs, err := c.Fetch(proxy.TopicFor(i), 0, 0, 1, 0)
	if err != nil {
		return err
	}
	if len(recs) != 1 {
		return fmt.Errorf("restarted proxy %d serves no records", i)
	}
	if a.tr != nil {
		var sa acc
		sa.add(from, a.tr.now(), 1)
		a.tr.fold("restart.serve", parent, -1, i, &sa)
	}
	return nil
}

// closeNet stops the deploy round's connections, servers and brokers.
func (a *assembly) closeNet() {
	for _, c := range a.conns {
		c.Close()
	}
	for _, s := range a.servers {
		s.Close()
	}
	for _, b := range a.brokers {
		b.Close()
	}
	a.conns, a.servers, a.brokers = nil, nil, nil
}

// close releases everything the round holds, its WAL directory too.
func (a *assembly) close() {
	if a.sp.deploy {
		a.closeNet()
		if a.dir != "" {
			os.RemoveAll(a.dir)
		}
		return
	}
	if a.fleet != nil {
		a.fleet.Close()
	}
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// clientTap routes the timing of one client's sink calls to the
// accumulator of the worker currently answering for that client. The
// worker sets cur before calling AnswerOnce on its own goroutine, so
// the sink calls that follow see it without further synchronization.
type clientTap struct {
	t   *tracer
	cur *acc
}

// sinkTap times one sink call: proxy.Proxy.Submit in process,
// client.Batcher.Submit on deploy.
type sinkTap struct {
	next client.ShareSink
	tap  *clientTap
}

func (s sinkTap) Submit(share xorcrypt.Share) error {
	from := s.tap.t.now()
	err := s.next.Submit(share)
	s.tap.cur.add(from, s.tap.t.now(), 1)
	return err
}

// proxyTap times the calls a Batcher's flush makes into its proxy.
type proxyTap struct {
	p   *proxy.Proxy
	t   *tracer
	acc acc
}

func (pt *proxyTap) SubmitBatch(shares []xorcrypt.Share) error {
	from := pt.t.now()
	err := pt.p.SubmitBatch(shares)
	pt.acc.add(from, pt.t.now(), int64(len(shares)))
	return err
}

func (pt *proxyTap) SubmitColumns(mids, payloads []byte, count, size int) error {
	from := pt.t.now()
	err := pt.p.SubmitColumns(mids, payloads, count, size)
	pt.acc.add(from, pt.t.now(), int64(count))
	return err
}
