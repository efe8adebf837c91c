package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEndMetrics are what a user of the grid sees; every run reports
// them with tracing off.
var endToEndMetrics = []metricDef{
	{"calls_per_s", "calls/s", "higher"},
	{"call_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// Printed with every run but not in the result line, so not gated.
// Across sets of ten runs of one commit on a 2-core guest, the tails
// and the millisecond submit latencies spread 0.28-0.84 of their
// median (quartile distance) in some sets, past any usable bound.
// cpu_ms_per_call follows the host's speed: it spread up to 0.23, and
// the first run after a minute's idle read about 30% low. failed_frac
// reads 0 on a healthy grid. host_steal_pct is the CPU the hypervisor
// took over the window, to tell a noisy run from a slow program.
var (
	endToEndInfo = []metricDef{
		{"cpu_ms_per_call", "ms", "lower"},
		{"call_p99_ms", "ms", "lower"},
		{"submit_p50_ms", "ms", "lower"},
		{"submit_p99_ms", "ms", "lower"},
		{"gen_late_p99_ms", "ms", "lower"},
		{"failed_frac", "ratio", "lower"},
		{"host_steal_pct", "%", "lower"},
	}
	tracedInfo = []metricDef{
		{"failed_frac", "ratio", "lower"},
		{"host_steal_pct", "%", "lower"},
		{"trace.pull_errors", "count", "lower"},
	}
)

// perLayerMetrics come from the traced run, one group per module a
// call crosses.
var perLayerMetrics = []metricDef{
	{"client.log_ms_p50", "ms", "lower"},
	{"client.log_ms_p99", "ms", "lower"},
	{"client.submit_call_ms_p99", "ms", "lower"},
	{"client.poll_wait_ms_p50", "ms", "lower"},
	{"client.syncs", "count", "lower"},
	{"client.cpu_ms_per_call", "ms", "lower"},
	{"proto.encode_ns", "ns", "lower"},
	{"proto.decode_ns", "ns", "lower"},
	{"proto.allocs_per_msg", "count", "lower"},
	{"proto.bytes_per_call", "bytes", "lower"},
	{"rt.msgs_per_call", "count", "lower"},
	{"rt.msgs_per_flush", "count", "higher"},
	{"rt.dropped", "count", "lower"},
	{"rt.redials", "count", "lower"},
	{"rt.sheds", "count", "lower"},
	{"rt.coord_mailbox_depth_max", "count", "lower"},
	{"coordinator.cpu_ms_per_call", "ms", "lower"},
	{"coordinator.accept_ms_p50", "ms", "lower"},
	{"coordinator.accept_ms_p99", "ms", "lower"},
	{"coordinator.ack_ms_p50", "ms", "lower"},
	{"coordinator.result_ms_p50", "ms", "lower"},
	{"coordinator.requeues", "count", "lower"},
	{"coordinator.dup_results", "count", "lower"},
	{"coordinator.rss_mb", "MiB", "lower"},
	{"sched.wait_ms_p50", "ms", "lower"},
	{"sched.wait_ms_p99", "ms", "lower"},
	{"sched.queue_depth_max", "count", "lower"},
	{"store.coord_writes_per_call", "count", "lower"},
	{"store.coord_write_ms_p50", "ms", "lower"},
	{"store.coord_write_ms_p99", "ms", "lower"},
	{"store.ops_per_commit", "count", "higher"},
	{"store.server_write_ms_p99", "ms", "lower"},
	{"server.exec_overhead_ms_p50", "ms", "lower"},
	{"server.reexec_frac", "ratio", "lower"},
	{"server.cpu_ms_per_call", "ms", "lower"},
	{"detector.kill_to_requeue_ms_p50", "ms", "lower"},
	{"detector.kill_to_requeue_ms_p99", "ms", "lower"},
	{"trace.spans_lost", "count", "lower"},
	{"trace.untraced_calls_per_s", "calls/s", "higher"},
	{"trace.traced_calls_per_s", "calls/s", "higher"},
	{"trace.overhead_calls_per_s_pct", "%", "lower"},
	{"trace.untraced_call_p50_ms", "ms", "lower"},
	{"trace.traced_call_p50_ms", "ms", "lower"},
	{"trace.overhead_call_p50_pct", "%", "lower"},
}

// layerValues is the traced run's per-layer table. A metric the run
// cannot measure reads 0 and carries the reason in na.
type layerValues struct {
	v  map[string]float64
	na map[string]string
}

func (lv layerValues) set(name string, v float64) { lv.v[name] = v }

func (lv layerValues) setNA(name, why string) { lv.v[name], lv.na[name] = 0, why }

// setQ stores a quantile of samples, or n/a when there are none.
func (lv layerValues) setQ(name string, samples []float64, q float64, why string) {
	if len(samples) == 0 {
		lv.setNA(name, why)
		return
	}
	lv.v[name] = quantile(samples, q)
}

// hop is a span naming a server: a dispatch to it or an execution on it.
type hop struct {
	at     time.Time
	server string
}

// callSpans joins one call's spans across nodes.
type callSpans struct {
	submit, durable, ack time.Time // client
	enqueue, result      time.Time // coordinator (first seen)
	resultFrom           string
	dispatches, execs    []hop
	requeues             []time.Time
}

// keepEarliest sets *t to at if at is earlier or *t unset.
func keepEarliest(t *time.Time, at time.Time) {
	if t.IsZero() || at.Before(*t) {
		*t = at
	}
}

// joinSpans groups the collected spans by CallID.
func joinSpans(spans map[spanKey]obs.Span) map[proto.CallID]*callSpans {
	out := map[proto.CallID]*callSpans{}
	for _, sp := range spans {
		cs := out[sp.Call]
		if cs == nil {
			cs = &callSpans{}
			out[sp.Call] = cs
		}
		node := string(sp.Node)
		onClient := strings.HasPrefix(node, "client-")
		switch sp.Stage {
		case obs.StageSubmit:
			keepEarliest(&cs.submit, sp.At)
		case obs.StageDurable:
			if onClient {
				keepEarliest(&cs.durable, sp.At)
			}
		case obs.StageAck:
			keepEarliest(&cs.ack, sp.At)
		case obs.StageEnqueue:
			keepEarliest(&cs.enqueue, sp.At)
		case obs.StageResult:
			if cs.result.IsZero() || sp.At.Before(cs.result) {
				cs.result, cs.resultFrom = sp.At, sp.Detail
			}
		case obs.StageDispatch:
			cs.dispatches = append(cs.dispatches, hop{sp.At, sp.Detail})
		case obs.StageExec:
			cs.execs = append(cs.execs, hop{sp.At, node})
		case obs.StageRequeue:
			cs.requeues = append(cs.requeues, sp.At)
		}
	}
	for _, cs := range out {
		sort.Slice(cs.dispatches, func(i, j int) bool { return cs.dispatches[i].at.Before(cs.dispatches[j].at) })
		sort.Slice(cs.execs, func(i, j int) bool { return cs.execs[i].at.Before(cs.execs[j].at) })
	}
	return out
}

// lastBefore returns the latest hop at or before t (to server, if
// server is not empty).
func lastBefore(hops []hop, t time.Time, server string) (hop, bool) {
	var best hop
	found := false
	for _, h := range hops {
		if h.at.After(t) {
			break
		}
		if server == "" || h.server == server {
			best, found = h, true
		}
	}
	return best, found
}

// perLayer computes the per-layer table of a finished traced phase;
// untraced is the paired run without tracing, for the overhead.
func (ph *phase) perLayer(traced, untraced result) (layerValues, error) {
	lv := layerValues{v: map[string]float64{}, na: map[string]string{}}
	col := ph.col
	col.mu.Lock()
	calls := joinSpans(col.spans)
	mailboxMax := col.mailboxMax
	col.mu.Unlock()
	recs := ph.or.snapshot(ph.recs)
	correct := float64(traced.attempted - traced.failed)

	var blockMs, logMs, pollMs, acceptMs, ackMs, resultMs, waitMs, overMs []float64
	lost := 0
	for _, rec := range recs {
		if !rec.returned.IsZero() {
			blockMs = append(blockMs, ms(rec.returned.Sub(rec.issued)))
		}
		if rec.result.IsZero() {
			continue
		}
		cs := calls[rec.id]
		if cs == nil {
			lost += 7
			continue
		}
		for _, t := range []time.Time{cs.submit, cs.durable, cs.ack, cs.enqueue, cs.result} {
			if t.IsZero() {
				lost++
			}
		}
		if len(cs.dispatches) == 0 {
			lost++
		}
		if len(cs.execs) == 0 {
			lost++
		}
		if !cs.submit.IsZero() && !cs.durable.IsZero() {
			logMs = append(logMs, ms(cs.durable.Sub(cs.submit)))
		}
		if !cs.result.IsZero() {
			pollMs = append(pollMs, ms(rec.result.Sub(cs.result)))
		}
		if !cs.enqueue.IsZero() {
			if !cs.submit.IsZero() {
				acceptMs = append(acceptMs, ms(cs.enqueue.Sub(cs.submit)))
			}
			if !rec.complete.IsZero() {
				ackMs = append(ackMs, ms(rec.complete.Sub(cs.enqueue)))
			}
			for _, d := range cs.dispatches {
				if !d.at.Before(cs.enqueue) {
					waitMs = append(waitMs, ms(d.at.Sub(cs.enqueue)))
					break
				}
			}
		}
		if !cs.result.IsZero() {
			if e, ok := lastBefore(cs.execs, cs.result, cs.resultFrom); ok {
				resultMs = append(resultMs, ms(cs.result.Sub(e.at)))
			}
		}
		for _, e := range cs.execs {
			if d, ok := lastBefore(cs.dispatches, e.at, e.server); ok {
				overMs = append(overMs, ms(e.at.Sub(d.at)-rec.spec.execTime))
			}
		}
	}
	noSpans := "no call had both spans"
	lv.setQ("client.log_ms_p50", logMs, 0.50, noSpans)
	lv.setQ("client.log_ms_p99", logMs, 0.99, noSpans)
	lv.setQ("client.submit_call_ms_p99", blockMs, 0.99, "no Submit returned")
	lv.setQ("client.poll_wait_ms_p50", pollMs, 0.50, noSpans)
	lv.setQ("coordinator.accept_ms_p50", acceptMs, 0.50, noSpans)
	lv.setQ("coordinator.accept_ms_p99", acceptMs, 0.99, noSpans)
	lv.setQ("coordinator.ack_ms_p50", ackMs, 0.50, noSpans)
	lv.setQ("coordinator.result_ms_p50", resultMs, 0.50, noSpans)
	lv.setQ("sched.wait_ms_p50", waitMs, 0.50, noSpans)
	lv.setQ("sched.wait_ms_p99", waitMs, 0.99, noSpans)
	lv.setQ("server.exec_overhead_ms_p50", overMs, 0.50, noSpans)
	lv.set("sched.queue_depth_max", queueDepthMax(calls, ph.t0))
	lv.set("trace.spans_lost", float64(lost))

	// Kill → requeue: a requeued call's last dispatch names the server
	// whose death the coordinator detected.
	var detect []float64
	ph.killMu.Lock()
	kills := append([]killEvent(nil), ph.kills...)
	ph.killMu.Unlock()
	for _, cs := range calls {
		for _, rq := range cs.requeues {
			d, ok := lastBefore(cs.dispatches, rq, "")
			if !ok {
				continue
			}
			var killAt time.Time
			for _, k := range kills {
				if k.server == d.server && !k.at.After(rq) && k.at.After(killAt) {
					killAt = k.at
				}
			}
			if !killAt.IsZero() {
				detect = append(detect, ms(rq.Sub(killAt)))
			}
		}
	}
	noKills := "no requeue followed a server kill"
	if len(kills) == 0 {
		noKills = "this workload kills no server"
	}
	lv.setQ("detector.kill_to_requeue_ms_p50", detect, 0.50, noKills)
	lv.setQ("detector.kill_to_requeue_ms_p99", detect, 0.99, noKills)

	// Counters, as growth over the measured window.
	isCoord := func(src any) bool { p, ok := src.(*proc); return ok && p == ph.g.coord.cur }
	isServer := func(src any) bool { p, ok := src.(*proc); return ok && p != ph.g.coord.cur }
	isClient := func(src any) bool { _, ok := src.(*session); return ok }
	all := func(any) bool { return true }
	sent := col.delta("rpcv_transport_sent_total", all)
	lv.set("client.syncs", col.delta("rpcv_client_syncs_total", isClient))
	lv.set("rt.msgs_per_call", sent/correct)
	if flushes := col.delta("rpcv_transport_flushes_total", all); flushes > 0 {
		lv.set("rt.msgs_per_flush", sent/flushes)
	} else {
		lv.setNA("rt.msgs_per_flush", "no flush counted")
	}
	lv.set("rt.dropped", col.delta("rpcv_transport_dropped_total", all))
	lv.set("rt.redials", col.delta("rpcv_transport_redials_total", all))
	lv.set("rt.sheds", col.delta("rpcv_transport_sheds_total", all))
	lv.set("rt.coord_mailbox_depth_max", mailboxMax)
	lv.set("coordinator.requeues", col.delta("rpcv_coord_requeues_total", isCoord))
	lv.set("coordinator.dup_results", col.delta("rpcv_coord_dup_results_total", isCoord))
	lv.set("store.coord_writes_per_call", col.delta("rpcv_store_write_latency_ns_count", isCoord)/correct)
	lv.set("server.reexec_frac", col.delta("rpcv_server_executed_total", isServer)/correct-1)

	col.mu.Lock()
	var coordLast metricSet // nil, and every lookup missing, if never pulled
	if s := col.sources[ph.g.coord.cur]; s != nil {
		coordLast = s.last
	}
	serverP99, serverFound := 0.0, false
	for src, s := range col.sources {
		if isServer(src) {
			if v, ok := s.last.quantile("rpcv_store_write_latency_ns", "0.99"); ok && v > serverP99 {
				serverP99, serverFound = v, true
			}
		}
	}
	col.mu.Unlock()
	for _, q := range []struct{ name, q string }{{"store.coord_write_ms_p50", "0.5"}, {"store.coord_write_ms_p99", "0.99"}} {
		if v, ok := coordLast.quantile("rpcv_store_write_latency_ns", q.q); ok {
			lv.set(q.name, v/1e6)
		} else {
			lv.setNA(q.name, "the coordinator exported no store write latency")
		}
	}
	if serverFound {
		lv.set("store.server_write_ms_p99", serverP99/1e6)
	} else {
		lv.setNA("store.server_write_ms_p99", "no server exported a store write latency")
	}
	switch commits := col.delta("rpcv_store_wal_commits_total", isCoord); {
	case !coordLast.has("rpcv_store_wal_commits_total"):
		lv.setNA("store.ops_per_commit", "the coordinator's store engine has no group commit (no rpcv_store_wal_* counters)")
	case commits == 0:
		lv.setNA("store.ops_per_commit", "no group commit in the window")
	default:
		lv.set("store.ops_per_commit", col.delta("rpcv_store_wal_committed_ops_total", isCoord)/commits)
	}

	coordCPU, serverCPU := ph.g.cpuSince()
	self, err := procCPU(os.Getpid())
	if err == nil {
		lv.set("client.cpu_ms_per_call", ms(self-ph.selfCPUBase)/correct)
	}
	lv.set("coordinator.cpu_ms_per_call", ms(coordCPU)/correct)
	lv.set("server.cpu_ms_per_call", ms(serverCPU)/correct)
	if rss, err := procStatusKB(ph.g.coord.cur.pid(), "VmRSS"); err == nil {
		lv.set("coordinator.rss_mb", rss/1024)
	}

	enc, dec, allocs, bytes, err := protoBench(recs)
	if err != nil {
		return lv, err
	}
	lv.set("proto.encode_ns", enc)
	lv.set("proto.decode_ns", dec)
	lv.set("proto.allocs_per_msg", allocs)
	lv.set("proto.bytes_per_call", bytes)

	ut, tr := untraced.metrics, traced.metrics
	lv.set("trace.untraced_calls_per_s", ut["calls_per_s"])
	lv.set("trace.traced_calls_per_s", tr["calls_per_s"])
	lv.set("trace.overhead_calls_per_s_pct", 100*(ut["calls_per_s"]-tr["calls_per_s"])/ut["calls_per_s"])
	lv.set("trace.untraced_call_p50_ms", ut["call_p50_ms"])
	lv.set("trace.traced_call_p50_ms", tr["call_p50_ms"])
	lv.set("trace.overhead_call_p50_pct", 100*(tr["call_p50_ms"]-ut["call_p50_ms"])/ut["call_p50_ms"])
	return lv, nil
}

// queueDepthMax replays the coordinator's enqueue, requeue and
// dispatch spans after t0 and returns the deepest the pending queue got.
func queueDepthMax(calls map[proto.CallID]*callSpans, t0 time.Time) float64 {
	type ev struct {
		at time.Time
		d  int
	}
	var evs []ev
	for _, cs := range calls {
		if !cs.enqueue.IsZero() {
			evs = append(evs, ev{cs.enqueue, +1})
		}
		for _, r := range cs.requeues {
			evs = append(evs, ev{r, +1})
		}
		for _, d := range cs.dispatches {
			evs = append(evs, ev{d.at, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at.Equal(evs[j].at) {
			return evs[i].d > evs[j].d
		}
		return evs[i].at.Before(evs[j].at)
	})
	depth, best := 0, 0
	for _, e := range evs {
		depth += e.d
		if depth < 0 {
			depth = 0 // an enqueue span lost before the window
		}
		if e.at.After(t0) && depth > best {
			best = depth
		}
	}
	return float64(best)
}

// protoBench times proto's public binary encode and decode on
// messages built from the run's own calls: the Submit, the
// TaskAssignment (inside a HeartbeatAck), the TaskResult and the
// Results, one call per message. The daemons may batch several calls
// into one message; these figures describe the unbatched form. It
// returns ns per encode, ns per decode, allocations per
// encode+decode, and wire bytes per call (the four plus the two acks).
func protoBench(recs []callRecord) (encNs, decNs, allocs, bytesPerCall float64, err error) {
	var msgs []proto.Message
	totalBytes, sampled := 0, 0
	for _, rec := range recs {
		if rec.result.IsZero() || sampled == 256 {
			continue
		}
		sampled++
		task := proto.TaskID{Call: rec.id}
		four := []proto.Message{
			&proto.Submit{Call: rec.id, Service: rec.spec.service, Params: rec.spec.params, ExecTime: rec.spec.execTime},
			&proto.HeartbeatAck{From: coordID, Coordinators: []proto.NodeID{coordID}, Tasks: []proto.TaskAssignment{
				{Task: task, Service: rec.spec.service, Params: rec.spec.params, ExecTime: rec.spec.execTime}}},
			&proto.TaskResult{From: "server-0", Task: task, Output: rec.want, Exec: rec.spec.execTime},
			&proto.Results{User: rec.id.User, Session: rec.id.Session,
				Results: []proto.Result{{Call: rec.id, Output: rec.want, Server: "server-0"}}},
		}
		for _, m := range append(four, &proto.SubmitAck{Call: rec.id, MaxSeq: rec.id.Seq}, &proto.TaskResultAck{Task: task}) {
			totalBytes += len(proto.EncodeMessage(m))
		}
		msgs = append(msgs, four...)
	}
	if sampled == 0 {
		return 0, 0, 0, 0, errors.New("no correct call to encode")
	}
	encoded := make([][]byte, len(msgs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rounds := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i, m := range msgs {
			encoded[i] = proto.EncodeMessage(m)
		}
		rounds++
	}
	encDur := time.Since(start)
	runtime.ReadMemStats(&after)
	encAllocs := after.Mallocs - before.Mallocs
	n := float64(rounds * len(msgs))

	runtime.ReadMemStats(&before)
	rounds = 0
	start = time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for _, raw := range encoded {
			if _, err := proto.DecodeMessage(raw); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("decoding a freshly encoded message: %w", err)
			}
		}
		rounds++
	}
	decDur := time.Since(start)
	runtime.ReadMemStats(&after)
	m := float64(rounds * len(msgs))
	return float64(encDur.Nanoseconds()) / n, float64(decDur.Nanoseconds()) / m,
		float64(encAllocs)/n + float64(after.Mallocs-before.Mallocs)/m,
		float64(totalBytes) / float64(sampled), nil
}
