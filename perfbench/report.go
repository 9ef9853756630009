package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// endToEnd computes the untraced metrics over every round of the run.
func endToEnd(rounds []*round, rssMB float64) map[string]metric {
	var epochs, lats, setup, restart []float64
	var sent int64
	var timed procDelta
	for _, r := range rounds {
		epochs = append(epochs, r.epochMs...)
		lats = append(lats, r.latencyMs...)
		setup = append(setup, r.setup.Seconds())
		restart = append(restart, r.restart.Seconds())
		sent += r.decoded
		timed.wall += r.timed.wall
		timed.cpu += r.timed.cpu
		timed.alloc += r.timed.alloc
	}
	ep50, _, _ := tailPercentile(epochs, 0.5)
	ep95, _, _ := tailPercentile(epochs, 0.95)
	wl50, _, _ := tailPercentile(lats, 0.5)
	wl95, _, _ := tailPercentile(lats, 0.95)
	answers := float64(max(sent, 1))
	return map[string]metric{
		"answers_per_s":          {float64(sent) / timed.wall.Seconds(), "1/s"},
		"epoch_ms_p50":           {ep50, "ms"},
		"epoch_ms_p95":           {ep95, "ms"},
		"window_latency_ms_p50":  {wl50, "ms"},
		"window_latency_ms_p95":  {wl95, "ms"},
		"cpu_us_per_answer":      {float64(timed.cpu.Microseconds()) / answers, "us"},
		"alloc_bytes_per_answer": {float64(timed.alloc) / answers, "B"},
		"rss_peak_mb":            {rssMB, "MB"},
		"setup_s":                {median(setup), "s"},
		"restart_s":              {median(restart), "s"},
	}
}

func printEndToEnd(sp spec, rounds []*round, m map[string]metric) {
	var epochs, lats []float64
	var sent, decoded, dropped int64
	var timed time.Duration
	for _, r := range rounds {
		epochs = append(epochs, r.epochMs...)
		lats = append(lats, r.latencyMs...)
		sent += r.sent
		decoded += r.decoded
		dropped += r.dropped
		timed += r.timed.wall
	}
	fmt.Printf("workload %s: %d rounds × %d timed epochs, %d clients, %d queries, s=%g; %d answers in %.2fs timed\n",
		sp.name, len(rounds), sp.epochs-sp.warm, sp.clients, sp.queries, sp.s, sent, timed.Seconds())
	pct := func(xs []float64, p float64) string {
		_, used, n := tailPercentile(xs, p)
		return fmt.Sprintf("(p%.4g of n=%d, %d beyond)", used*100, n, beyond(n, used))
	}
	notes := map[string]string{
		"epoch_ms_p50":          pct(epochs, 0.5),
		"epoch_ms_p95":          pct(epochs, 0.95),
		"window_latency_ms_p50": pct(lats, 0.5),
		"window_latency_ms_p95": pct(lats, 0.95),
		"setup_s":               fmt.Sprintf("(median of %d)", len(rounds)),
		"restart_s":             fmt.Sprintf("(median of %d)", len(rounds)),
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-24s %14.4f %-6s %s\n", k, m[k].Value, m[k].Unit, notes[k])
	}
	failed := sent - decoded + dropped
	fmt.Printf("  %-24s %14.4f %-6s (%d of %d answers unaccounted or dropped)\n", "failed_ratio", float64(failed)/float64(max(sent, 1)), "ratio", failed, sent)
}

// phases are the blocking steps of an epoch, in order.
var phases = []string{"answer", "flush", "fire", "drain"}

// layerMetrics derives the per-layer metrics from the traced run.
func layerMetrics(sp spec, t map[string]*layerTotal, lay *layerStats, untracedWall time.Duration) map[string]metric {
	get := func(name string) *layerTotal {
		if lt := t[name]; lt != nil {
			return lt
		}
		return &layerTotal{}
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	epoch := get("epoch")
	ans, flush, drain := get("answer"), get("flush"), get("drain")
	ca := get("client.answer")
	sink := get("proxy.submit")
	if sp.deploy {
		sink = get("client.batch")
	}
	ps := get("proxy.submit") // in process the sink; on deploy the flush's call into the proxy
	poll, join, fire := get("pubsub.poll"), get("aggregator.join"), get("aggregator.fire")
	replay, restart := get("wal.replay"), get("restart")
	answers := float64(ca.count)
	shares := float64(join.count)

	m := map[string]metric{
		"client.answer_ns_per_answer":         {per(float64(ca.busy-sink.busy), answers), "ns"},
		"client.participation_ratio":          {per(float64(lay.sent), float64(lay.slots)), "ratio"},
		"client.batch_ns_per_share":           {0, "ns"},
		"client.flush_ns_per_share":           {per(float64(get("client.flush").busy), float64(get("client.flush").count)), "ns"},
		"proxy.submit_ns_per_share":           {per(float64(ps.busy), float64(ps.count)), "ns"},
		"proxy.submit_calls_per_share":        {per(float64(ps.calls), float64(ps.count)), "ratio"},
		"proxy.backlog_max":                   {float64(lay.backlogMax), "count"},
		"proxy.retained_records":              {per(float64(lay.retained), float64(lay.rounds)), "count"},
		"pubsub.poll_ns_per_record":           {per(float64(poll.busy), float64(poll.count)), "ns"},
		"pubsub.records_per_poll":             {per(float64(poll.count), float64(poll.calls)), "count"},
		"pubsub.empty_poll_ratio":             {per(float64(lay.emptyPolls), float64(poll.calls)), "ratio"},
		"aggregator.join_ns_per_share":        {per(float64(join.busy), shares), "ns"},
		"aggregator.pending_joins_max":        {float64(lay.pendingMax), "count"},
		"aggregator.drop_ratio":               {per(float64(lay.dropped), float64(lay.decoded+lay.dropped)), "ratio"},
		"aggregator.fire_ns_per_window":       {per(float64(fire.busy), float64(fire.count)), "ns"},
		"aggregator.windows_fired":            {per(float64(lay.windows), float64(lay.epochs)), "1/epoch"},
		"aggregator.open_windows_max":         {float64(lay.openMax), "count"},
		"aggregator.restore_ms":               {per(float64(get("aggregator.restore").busy), float64(get("aggregator.restore").calls)) / 1e6, "ms"},
		"wal.bytes_per_share":                 {per(float64(lay.walBytes), float64(lay.walShares)), "B"},
		"wal.replay_ns_per_record":            {per(float64(replay.busy), float64(replay.count)), "ns"},
		"restart.replay_ratio":                {per(float64(replay.busy), float64(restart.wall)), "ratio"},
		"runtime.gc_cpu_ratio":                {per(lay.gcCPU, lay.totalCPU), "ratio"},
		"runtime.heap_mb_end":                 {float64(lay.heapEnd) / (1 << 20), "MB"},
		"epoch.answer_ratio":                  {per(float64(ans.wall), float64(epoch.wall)), "ratio"},
		"epoch.flush_ratio":                   {per(float64(flush.wall), float64(epoch.wall)), "ratio"},
		"epoch.fire_ratio":                    {per(float64(get("fire").wall), float64(epoch.wall)), "ratio"},
		"epoch.drain_ratio":                   {per(float64(drain.wall), float64(epoch.wall)), "ratio"},
		"epoch.answer_alloc_bytes_per_answer": {per(float64(ans.alloc), answers), "B"},
		"epoch.drain_alloc_bytes_per_share":   {per(float64(drain.alloc), shares), "B"},
		"trace.unattributed_ratio":            {per(float64(epoch.self), float64(epoch.wall)), "ratio"},
		"trace.overhead_ratio":                {per(float64(lay.tracedWall), float64(untracedWall)) - 1, "ratio"},
	}
	if sp.deploy {
		m["client.batch_ns_per_share"] = metric{per(float64(sink.busy), float64(sink.count)), "ns"}
	}
	return m
}

// printLayerTable prints the traced run's phases and layers.
func printLayerTable(sp spec, t map[string]*layerTotal, m map[string]metric) {
	epoch := t["epoch"]
	if epoch == nil || epoch.wall == 0 {
		return
	}
	fmt.Printf("workload %s traced: %d epochs, %.1f ms epoch wall\n", sp.name, epoch.spans, float64(epoch.wall)/1e6)
	fmt.Printf("  %-10s %8s %10s %12s %14s\n", "phase", "ratio", "wall_ms", "self_ms", "alloc_B/unit")
	var sum float64
	for _, p := range phases {
		lt := t[p]
		if lt == nil {
			continue
		}
		r := float64(lt.wall) / float64(epoch.wall)
		sum += r
		fmt.Printf("  %-10s %8.4f %10.1f %12.1f %14.1f\n", p, r, float64(lt.wall)/1e6, float64(lt.self)/1e6,
			float64(lt.alloc)/float64(max(lt.count, 1)))
	}
	fmt.Printf("  %-10s %8.4f %10.1f\n", "(unattr.)", float64(epoch.self)/float64(epoch.wall), float64(epoch.self)/1e6)
	fmt.Printf("  %-10s %8.4f\n", "sum", sum+float64(epoch.self)/float64(epoch.wall))
	fmt.Printf("  %-20s %8s %12s %10s %12s\n", "layer span", "spans", "calls", "units", "busy_ns/unit")
	var names []string
	for n := range t {
		if strings.Contains(n, ".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		lt := t[n]
		fmt.Printf("  %-20s %8d %12d %10d %12.1f\n", n, lt.spans, lt.calls, lt.count, float64(lt.busy)/float64(max(lt.count, 1)))
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-38s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
