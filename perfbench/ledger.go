package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/loadgen"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/router"
	"spatialcluster/internal/rtree"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// opKinds are the op types of the traced-run accounting.
var opKinds = []string{"window", "point", "knn", "insert", "update", "delete", "join"}

// ledgerMetrics is every per-layer metric a traced run reports, with its
// unit. A layer a workload bypasses does no work there and reads 0.
var ledgerMetrics = func() []metricDef {
	m := []metricDef{
		{"server.queue_wait_ms", "ms"}, {"server.execute_ms", "ms"}, {"server.mean_batch", "jobs"},
		{"server.handler_self_ms", "ms"}, {"server.client_overhead_ms", "ms"},
		{"server.json_codec_us", "us"}, {"binproto.codec_us", "us"},
		{"store.window_ms", "ms"}, {"store.point_ms", "ms"}, {"store.knn_ms", "ms"},
		{"store.insert_ms", "ms"}, {"store.update_ms", "ms"}, {"store.delete_ms", "ms"},
		{"store.answers_per_candidate", "ratio"},
		{"rtree.search_us", "us"}, {"rtree.nearest_us", "us"}, {"rtree.leaves_per_query", "1/op"},
		{"rtree.insert_us", "us"},
		{"buffer.hit_ratio", "ratio"}, {"buffer.evictions_per_op", "1/op"}, {"buffer.flushed_per_op", "1/op"},
		{"disk.pages_read_per_op", "1/op"}, {"disk.requests_per_op", "1/op"}, {"disk.pages_written_per_op", "1/op"},
		{"object.unmarshal_us", "us"},
		{"geom.exact_test_us", "us"}, {"geom.exact_tests_per_op", "1/op"},
		{"wal.apply_ms", "ms"}, {"wal.fsync_ms", "ms"}, {"wal.syncs_per_mutation", "1/op"},
		{"wal.bytes_per_mutation", "B"},
		{"router.scatter_ms", "ms"}, {"router.merge_ms", "ms"}, {"router.self_ms", "ms"},
		{"router.fanout", "shards"}, {"router.knn_waves", "1/op"}, {"router.retries_per_op", "1/op"},
		{"shard.merge_us", "us"},
		{"join.mbr_join_ms", "ms"}, {"join.prepare_ms", "ms"}, {"join.stall_ms", "ms"},
		{"join.refine_ms", "ms"}, {"join.result_per_mbr_pair", "ratio"},
		{"process.allocs_per_op", "1/op"}, {"process.gc_pause_ms", "ms"},
		{"trace_overhead", "ratio"},
	}
	for _, k := range opKinds {
		m = append(m,
			metricDef{"ledger." + k + "_client_ms", "ms"},
			metricDef{"ledger." + k + "_layers_ms", "ms"},
			metricDef{"ledger." + k + "_unexplained_ms", "ms"})
	}
	return m
}()

// completeLedger gives every ledger metric the run did not measure the value
// 0: its layer did no work on this workload.
func completeLedger(m metrics) {
	for _, lm := range ledgerMetrics {
		if _, ok := m[lm.name]; !ok {
			m.set(lm.name, 0, lm.unit)
		}
	}
}

// account records one op type's accounting: the client-observed mean, the
// sum of the layer self-times along its path, and what the layers leave
// unexplained.
func (m metrics) account(kind string, clientMS, layersMS float64) {
	m.set("ledger."+kind+"_client_ms", clientMS, "ms")
	m.set("ledger."+kind+"_layers_ms", layersMS, "ms")
	m.set("ledger."+kind+"_unexplained_ms", clientMS-layersMS, "ms")
}

// tracedOp is one op of a traced window: its type, client-observed latency
// and the span tree the daemon returned.
type tracedOp struct {
	kind string
	mut  datagen.OpKind // mutations only
	lat  time.Duration
	ti   *server.TraceInfo
}

// tracer issues the ops of a traced window with ?trace=1 and keeps their
// span trees, one slice per client.
type tracer struct{ ops [][]tracedOp }

func (t *tracer) read(c int, cl *server.Client, rq loadgen.Request) (answer, error) {
	t0 := time.Now()
	var (
		a   answer
		ti  *server.TraceInfo
		err error
	)
	switch rq.Kind {
	case loadgen.KindWindow:
		var resp server.QueryResponse
		resp, err = cl.WindowTraced(rq.Window, rq.Tech.String())
		a, ti = setAnswer(resp.IDs, resp.Candidates), resp.Trace
	case loadgen.KindPoint:
		var resp server.QueryResponse
		resp, err = cl.PointTraced(rq.Point)
		a, ti = setAnswer(resp.IDs, resp.Candidates), resp.Trace
	default:
		var resp server.KNNResponse
		resp, err = cl.KNNTraced(rq.Point, rq.K)
		a, ti = answer{ids: resp.IDs, dists: resp.Dists, cands: resp.Candidates}, resp.Trace
	}
	if err == nil {
		t.ops[c] = append(t.ops[c], tracedOp{kind: rq.Kind.String(), lat: time.Since(t0), ti: ti})
	}
	return a, err
}

func (t *tracer) mutate(c int, cl *server.Client, m datagen.Op) (bool, error) {
	t0 := time.Now()
	var (
		out server.MutateResponse
		err error
	)
	if m.Kind == datagen.OpDelete {
		err = cl.Post("/delete?trace=1", server.DeleteRequest{ID: uint64(m.ID)}, &out)
	} else {
		var j server.ObjectJSON
		if j, err = server.FromObject(m.Obj); err != nil {
			return false, err
		}
		k := [4]float64{m.Key.MinX, m.Key.MinY, m.Key.MaxX, m.Key.MaxY}
		err = cl.Post("/"+m.Kind.String()+"?trace=1", server.InsertRequest{Object: j, Key: &k}, &out)
	}
	if err != nil {
		return false, err
	}
	t.ops[c] = append(t.ops[c], tracedOp{kind: m.Kind.String(), mut: m.Kind, lat: time.Since(t0), ti: out.Trace})
	return out.Existed || m.Kind == datagen.OpInsert, nil
}

// counters is a snapshot of the engine counters a window's deltas come from.
type counters struct {
	buf     buffer.Stats
	cost    disk.Cost
	wal     wal.Stats
	batches int64
	jobs    int64
	rt      router.MetricsResponse
	mem     runtime.MemStats
}

func (r *servedRun) snapshot() (counters, error) {
	var s counters
	for i := range r.dep.orgs {
		env := r.dep.orgs[i].Env()
		b := env.Buf.Stats()
		s.buf.Hits += b.Hits
		s.buf.Misses += b.Misses
		s.buf.Evictions += b.Evictions
		s.buf.Flushed += b.Flushed
		s.cost = s.cost.Add(env.Disk.Cost())
		if ws, ok := r.dep.orgs[i].(*wal.Store); ok {
			st := ws.Log().Stats()
			s.wal.Syncs += st.Syncs
			s.wal.Bytes += st.Bytes
		}
	}
	ctl := server.NewClient(r.dep.base, 1)
	defer ctl.HTTP.CloseIdleConnections()
	if r.dep.router != nil {
		raw, err := ctl.Raw("/metrics")
		if err != nil {
			return s, err
		}
		if err := json.Unmarshal(raw, &s.rt); err != nil {
			return s, fmt.Errorf("router /metrics: %w", err)
		}
		s.batches, s.jobs = s.rt.Batches, s.rt.BatchedJobs
	} else {
		m, err := ctl.Metrics()
		if err != nil {
			return s, err
		}
		s.batches, s.jobs = m.Batches, m.BatchedJobs
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// ledger is the traced run of a served workload: an untraced window for the
// counter deltas and the baseline qps, a traced window whose span trees
// split each op across layers, then in-process timing of each package's
// public calls on the workload's own store and requests.
func (r *servedRun) ledger(cfg runConfig, res *result, rep *report) error {
	m := res.Metrics
	before, err := r.snapshot()
	if err != nil {
		return err
	}
	wu := closedLoop(clients, cfg.seconds, r.op)
	after, err := r.snapshot()
	if err != nil {
		return err
	}
	addWindow(wu, res, rep)
	ops := float64(max(len(wu.latencies(false)), 1))
	mutOps := float64(max(len(wu.latencies(true)), 1))

	hits, misses := after.buf.Hits-before.buf.Hits, after.buf.Misses-before.buf.Misses
	m.set("buffer.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	m.set("buffer.evictions_per_op", float64(after.buf.Evictions-before.buf.Evictions)/ops, "1/op")
	m.set("buffer.flushed_per_op", float64(after.buf.Flushed-before.buf.Flushed)/ops, "1/op")
	dc := after.cost.Sub(before.cost)
	m.set("disk.pages_read_per_op", float64(dc.PagesRead)/ops, "1/op")
	m.set("disk.requests_per_op", float64(dc.ReadRequests)/ops, "1/op")
	m.set("disk.pages_written_per_op", float64(dc.PagesWritten)/ops, "1/op")
	m.set("server.mean_batch", float64(after.jobs-before.jobs)/float64(max(after.batches-before.batches, 1)), "jobs")
	setProcess(m, before.mem, after.mem, ops)
	if r.spec.wal {
		m.set("wal.syncs_per_mutation", float64(after.wal.Syncs-before.wal.Syncs)/mutOps, "1/op")
		m.set("wal.bytes_per_mutation", float64(after.wal.Bytes-before.wal.Bytes)/mutOps, "B")
	}
	if r.dep.router != nil {
		var scatters, shards int64
		for w := range after.rt.Fanout {
			n := after.rt.Fanout[w]
			if w < len(before.rt.Fanout) {
				n -= before.rt.Fanout[w]
			}
			scatters += n
			shards += int64(w) * n
		}
		m.set("router.fanout", float64(shards)/float64(max(scatters, 1)), "shards")
		m.set("router.knn_waves", float64(after.rt.KNNWaves-before.rt.KNNWaves)/
			float64(max(after.rt.KNNQueries-before.rt.KNNQueries, 1)), "1/op")
		var retries int64
		for i := range after.rt.ShardTier {
			a, b := after.rt.ShardTier[i].Retry, before.rt.ShardTier[i].Retry
			retries += a.RetriedOverload + a.RetriedConn - b.RetriedOverload - b.RetriedConn
		}
		m.set("router.retries_per_op", float64(retries)/ops, "1/op")
	}

	r.tr = &tracer{ops: make([][]tracedOp, clients)}
	wt := closedLoop(clients, cfg.seconds, r.op)
	addWindow(wt, res, rep)
	m.set("trace_overhead", wt.qps()/wu.qps(), "ratio")
	rep.Extra.set("untraced_qps", wu.qps(), "1/s")
	rep.Extra.set("traced_qps", wt.qps(), "1/s")
	if ws, ok := r.dep.orgs[0].(*wal.Store); ok {
		m.set("wal.fsync_ms", ms(ws.Log().SyncHist().Quantile(0.5)), "ms")
	}

	p := r.probeTarget()
	codec := p.run(m)
	r.spans(m, codec, rep)
	if r.spec.mutEvery > 0 {
		m.set("store.update_ms", r.mutTimes.meanMS(datagen.OpUpdate), "ms")
		m.set("store.delete_ms", r.mutTimes.meanMS(datagen.OpDelete), "ms")
	}
	r.verifyFinal(res, rep)
	rep.Samples["untraced_ops"] = len(wu.latencies(false))
	rep.Samples["traced_ops"] = len(wt.latencies(false))
	completeLedger(m)
	return nil
}

// setProcess sets the process metrics from a window's MemStats delta.
func setProcess(m metrics, before, after runtime.MemStats, ops float64) {
	m.set("process.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, "1/op")
	m.set("process.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms")
}

// spans reads the traced window's span trees: queue wait and execution in
// sdbd, the router's scatter, merge and self time, WAL apply time, and per
// op type the layer sum next to the client-observed mean. codec holds the
// JSON encode+decode time of one hop per op type, in microseconds.
func (r *servedRun) spans(m metrics, codec map[string]float64, rep *report) {
	var queue, exec, apply, scatter, merge, self stat
	type perKind struct{ client, layers stat }
	kinds := map[string]*perKind{}
	hops := 1.0
	if r.dep.router != nil {
		hops = 2
	}
	for _, ops := range r.tr.ops {
		for _, op := range ops {
			if op.ti == nil {
				continue
			}
			// The critical path: under the router, the slowest shard of
			// each scatter or k-NN wave; on one sdbd, the whole tree.
			onPath := func(s obs.Span) bool { return true }
			layers := codec[op.kind] / 1000 * hops
			if r.dep.router != nil {
				slowest := map[uint32]obs.Span{} // parent → slowest shard span
				for _, s := range op.ti.Spans {
					if strings.HasPrefix(s.Stage, "shard[") {
						if cur, ok := slowest[s.Parent]; !ok || s.DurMS > cur.DurMS {
							slowest[s.Parent] = s
						}
					}
				}
				crit := map[uint32]bool{}
				rself := op.ti.TotalMS
				for _, s := range slowest {
					crit[s.ID] = true
					rself -= s.DurMS
				}
				onPath = func(s obs.Span) bool { return crit[s.Parent] }
				self.add(rself)
				layers += rself
			}
			for _, s := range op.ti.Spans {
				switch s.Stage {
				case "queue_wait":
					queue.add(s.DurMS)
				case "execute":
					exec.add(s.DurMS)
				case "apply":
					apply.add(s.DurMS - r.mutTimes.meanMS(op.mut))
				case "scatter":
					scatter.add(s.DurMS)
				case "merge":
					merge.add(s.DurMS)
				}
				if (s.Stage == "queue_wait" || s.Stage == "execute" || s.Stage == "apply") && onPath(s) {
					layers += s.DurMS
				}
			}
			pk := kinds[op.kind]
			if pk == nil {
				pk = &perKind{}
				kinds[op.kind] = pk
			}
			pk.client.add(ms(op.lat))
			pk.layers.add(layers)
		}
	}
	m.set("server.queue_wait_ms", queue.mean(), "ms")
	m.set("server.execute_ms", exec.mean(), "ms")
	if apply.n > 0 {
		m.set("wal.apply_ms", apply.mean(), "ms")
	}
	if r.dep.router != nil {
		m.set("router.scatter_ms", scatter.mean(), "ms")
		m.set("router.merge_ms", merge.mean(), "ms")
		m.set("router.self_ms", self.mean(), "ms")
	}
	for k, pk := range kinds {
		m.account(k, pk.client.mean(), pk.layers.mean())
		rep.Samples["traced_"+k] = pk.client.n
	}
}

// stat is a running mean.
type stat struct {
	sum float64
	n   int
}

func (s *stat) add(v float64) { s.sum += v; s.n++ }

func (s stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// probeN is how many stream requests the in-process probes time.
const probeN = 1024

// probeTarget is what the in-process probes time calls on: a store with its
// dataset and requests, and where there is one, the sdbd serving that store.
type probeTarget struct {
	org       store.Organization
	ds        *datagen.Dataset
	stream    []loadgen.Request
	bufPages  int
	handler   http.Handler         // the sdbd serving org (nil: none)
	base      string               // its URL
	shardOrgs []store.Organization // routed: every shard's store
	muts      []datagen.Op         // write_mix: mutations for the codec probe
}

// probeTarget points the probes at the first sdbd's store. Under the router
// that is shard 0's half of the data.
func (r *servedRun) probeTarget() probeTarget {
	p := probeTarget{
		org: r.dep.orgs[0], ds: r.dep.ds, stream: r.stream[:probeN], bufPages: r.spec.bufPages,
		handler: r.dep.servers[0].Handler(), base: r.dep.base,
	}
	if r.dep.router != nil {
		p.base = r.dep.shardCl[0].Base
		for i := range r.dep.orgs {
			p.shardOrgs = append(p.shardOrgs, r.dep.plain(i))
		}
	}
	if r.muts != nil {
		p.muts = r.muts[:probeN/3]
	}
	return p
}

// run times the public calls of each package on the target and sets their
// metrics. It returns the JSON codec time of one hop per op type (µs).
func (p probeTarget) run(m metrics) map[string]float64 {
	orgMS := p.probeStore(m)
	p.probeTree(m)
	p.probeObjects(m)
	p.probeExact(m)
	p.probeInsert(m)
	codec := p.probeCodecs(m)
	if p.handler != nil {
		p.probeHandler(m, orgMS)
	}
	if p.shardOrgs != nil {
		p.probeMerge(m)
	}
	return codec
}

// probeStore times the Organization query calls and returns each request's
// time in milliseconds.
func (p probeTarget) probeStore(m metrics) []float64 {
	var by [3]stat
	var answers, cands int
	out := make([]float64, len(p.stream))
	for i, rq := range p.stream {
		t0 := time.Now()
		a, _ := refRead(p.org, rq)
		out[i] = ms(time.Since(t0))
		by[rq.Kind].add(out[i])
		answers += len(a.ids)
		cands += a.cands
	}
	m.set("store.window_ms", by[loadgen.KindWindow].mean(), "ms")
	m.set("store.point_ms", by[loadgen.KindPoint].mean(), "ms")
	m.set("store.knn_ms", by[loadgen.KindKNN].mean(), "ms")
	m.set("store.answers_per_candidate", float64(answers)/float64(max(cands, 1)), "ratio")
	return out
}

// probeTree times R*-tree leaf searches for the windows and best-first leaf
// browses for the k-NN points (until k entries have surfaced).
func (p probeTarget) probeTree(m metrics) {
	t := p.org.Tree()
	var search, nearest, leaves stat
	for _, rq := range p.stream {
		switch rq.Kind {
		case loadgen.KindWindow:
			n := 0
			t0 := time.Now()
			t.SearchLeaves(rq.Window, func(rtree.LeafMatch) bool { n++; return true })
			search.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
			leaves.add(float64(n))
		case loadgen.KindKNN:
			seen := 0
			t0 := time.Now()
			t.NearestLeaves(rq.Point, nil, func(n *rtree.Node, _ float64) bool {
				seen += len(n.Entries)
				return seen < rq.K
			})
			nearest.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		}
	}
	m.set("rtree.search_us", search.mean(), "us")
	m.set("rtree.nearest_us", nearest.mean(), "us")
	m.set("rtree.leaves_per_query", leaves.mean(), "1/op")
}

// windowCandidates returns, per window request, the dataset objects whose
// key intersects the window: the filter step's candidates.
func (p probeTarget) windowCandidates() [][]*object.Object {
	var out [][]*object.Object
	for _, rq := range p.stream {
		if rq.Kind != loadgen.KindWindow {
			continue
		}
		var c []*object.Object
		for i, k := range p.ds.MBRs {
			if k.Intersects(rq.Window) {
				c = append(c, p.ds.Objects[i])
			}
		}
		out = append(out, c)
	}
	return out
}

// probeObjects times object.Unmarshal on the serialized candidates of the
// windows.
func (p probeTarget) probeObjects(m metrics) {
	var payloads [][]byte
	for _, c := range p.windowCandidates() {
		for _, o := range c {
			payloads = append(payloads, object.Marshal(o))
		}
	}
	t0 := time.Now()
	for _, b := range payloads {
		if _, err := object.Unmarshal(b); err != nil {
			panic(fmt.Sprintf("perfbench: unmarshal of a marshalled object: %v", err))
		}
	}
	m.set("object.unmarshal_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(max(len(payloads), 1)), "us")
}

// probeExact times the exact window predicate on every candidate.
func (p probeTarget) probeExact(m metrics) {
	cands := p.windowCandidates()
	wins := make([]geom.Rect, 0, len(cands))
	for _, rq := range p.stream {
		if rq.Kind == loadgen.KindWindow {
			wins = append(wins, rq.Window)
		}
	}
	tests := 0
	t0 := time.Now()
	for i, c := range cands {
		for _, o := range c {
			o.Geom.IntersectsRect(wins[i])
		}
		tests += len(c)
	}
	d := time.Since(t0)
	m.set("geom.exact_test_us", float64(d.Nanoseconds())/1e3/float64(max(tests, 1)), "us")
	m.set("geom.exact_tests_per_op", float64(tests)/float64(max(len(cands), 1)), "1/op")
}

// probeInserts is how many of the dataset's objects the insert probes place.
const probeInserts = 4096

// probeInsert times the build's inserts: Organization.Insert into a fresh
// cluster organization with the workload's buffer, and Tree.Insert of the
// same keys into a bare R*-tree.
func (p probeTarget) probeInsert(m metrics) {
	n := min(probeInserts, len(p.ds.Objects))
	org := store.NewCluster(store.NewEnv(p.bufPages), store.ClusterConfig{SmaxBytes: p.ds.Spec.SmaxBytes()})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		org.Insert(p.ds.Objects[i], p.ds.MBRs[i])
	}
	m.set("store.insert_ms", ms(time.Since(t0))/float64(n), "ms")

	env := store.NewEnv(p.bufPages)
	t := rtree.New(env.Buf, env.Alloc, rtree.Config{})
	payload := make([]byte, t.PayloadSize())
	t0 = time.Now()
	for i := 0; i < n; i++ {
		t.Insert(p.ds.MBRs[i], payload)
	}
	m.set("rtree.insert_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(n), "us")
}

// probeCodecs times encode+decode of each request and its response in the
// JSON wire format and in binproto, and returns the JSON time per op type.
func (p probeTarget) probeCodecs(m metrics) map[string]float64 {
	jsonBy := map[string]*stat{}
	var js, bs stat
	buf := make([]byte, 0, 1<<16)
	roundTrip := func(kind string, req, resp any, bin func()) {
		t0 := time.Now()
		jsonTrip(req)
		jsonTrip(resp)
		d := float64(time.Since(t0).Nanoseconds()) / 1e3
		js.add(d)
		if jsonBy[kind] == nil {
			jsonBy[kind] = &stat{}
		}
		jsonBy[kind].add(d)
		t0 = time.Now()
		bin()
		bs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	for _, rq := range p.stream {
		a, _ := refRead(p.org, rq)
		ids := make([]object.ID, len(a.ids))
		for i, id := range a.ids {
			ids[i] = object.ID(id)
		}
		switch rq.Kind {
		case loadgen.KindWindow:
			w := [4]float64{rq.Window.MinX, rq.Window.MinY, rq.Window.MaxX, rq.Window.MaxY}
			roundTrip("window", &server.WindowRequest{Window: w, Tech: rq.Tech.String()},
				&server.QueryResponse{IDs: a.ids, Candidates: a.cands}, func() {
					buf = binproto.AppendWindowReq(buf[:0], w, rq.Tech)
					mustBin(binproto.DecodeWindowReq(buf))
					buf = binproto.AppendQueryResp(buf[:0], ids, a.cands)
					mustBin(binproto.DecodeQueryResp(buf, nil))
				})
		case loadgen.KindPoint:
			pt := [2]float64{rq.Point.X, rq.Point.Y}
			roundTrip("point", &server.PointRequest{Point: pt},
				&server.QueryResponse{IDs: a.ids, Candidates: a.cands}, func() {
					buf = binproto.AppendPointReq(buf[:0], pt)
					mustBin(binproto.DecodePointReq(buf))
					buf = binproto.AppendQueryResp(buf[:0], ids, a.cands)
					mustBin(binproto.DecodeQueryResp(buf, nil))
				})
		default:
			pt := [2]float64{rq.Point.X, rq.Point.Y}
			roundTrip("knn", &server.KNNRequest{Point: pt, K: rq.K},
				&server.KNNResponse{IDs: a.ids, Dists: a.dists, Candidates: a.cands}, func() {
					buf = binproto.AppendKNNReq(buf[:0], pt, rq.K)
					mustBin(binproto.DecodeKNNReq(buf))
					buf = binproto.AppendKNNResp(buf[:0], ids, a.dists, a.cands)
					mustBin(binproto.DecodeKNNResp(buf, nil, nil))
				})
		}
	}
	for _, mu := range p.muts {
		resp := &server.MutateResponse{Existed: true}
		if mu.Kind == datagen.OpDelete {
			roundTrip("delete", &server.DeleteRequest{ID: uint64(mu.ID)}, resp, func() {
				buf = binproto.AppendDeleteReq(buf[:0], uint64(mu.ID))
				mustBin(binproto.DecodeDeleteReq(buf))
				buf = binproto.AppendMutateResp(buf[:0], true)
				mustBin(binproto.DecodeMutateResp(buf))
			})
			continue
		}
		j, err := server.FromObject(mu.Obj)
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated object has no wire form: %v", err))
		}
		k := [4]float64{mu.Key.MinX, mu.Key.MinY, mu.Key.MaxX, mu.Key.MaxY}
		kind := binproto.KindInsert
		if mu.Kind == datagen.OpUpdate {
			kind = binproto.KindUpdate
		}
		roundTrip(mu.Kind.String(), &server.InsertRequest{Object: j, Key: &k}, resp, func() {
			buf = binproto.AppendMutateReq(buf[:0], kind, mu.Obj, &k)
			mustBin(binproto.DecodeMutateReq(buf, kind))
			buf = binproto.AppendMutateResp(buf[:0], true)
			mustBin(binproto.DecodeMutateResp(buf))
		})
	}
	m.set("server.json_codec_us", js.mean(), "us")
	m.set("binproto.codec_us", bs.mean(), "us")
	out := map[string]float64{}
	for k, s := range jsonBy {
		out[k] = s.mean()
	}
	return out
}

// jsonTrip encodes v and decodes it back into v.
func jsonTrip(v any) {
	b, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: json round trip of %T: %v", v, err))
	}
}

// mustBin panics when a binproto decoder rejects what its encoder wrote.
func mustBin(args ...any) {
	if err, ok := args[len(args)-1].(error); ok && err != nil {
		panic(fmt.Sprintf("perfbench: binproto round trip: %v", err))
	}
}

// probeHandler times the read requests in-process through the sdbd handler
// and over loopback through server.Client: handler self time is ServeHTTP
// minus the same Organization call, client overhead is the Client call
// minus ServeHTTP.
func (p probeTarget) probeHandler(m metrics, orgMS []float64) {
	cl := server.NewClient(p.base, 1)
	defer cl.HTTP.CloseIdleConnections()
	var self, overhead stat
	for i, rq := range p.stream {
		path, body := wireRequest(rq)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		p.handler.ServeHTTP(rec, req)
		serve := ms(time.Since(t0))
		t0 = time.Now()
		if _, err := (clientReader{cl}).read(rq); err != nil {
			continue
		}
		call := ms(time.Since(t0))
		if rec.Code != http.StatusOK {
			continue
		}
		self.add(serve - orgMS[i])
		overhead.add(call - serve)
	}
	m.set("server.handler_self_ms", self.mean(), "ms")
	m.set("server.client_overhead_ms", overhead.mean(), "ms")
}

// wireRequest is the JSON API path and body of a read request.
func wireRequest(rq loadgen.Request) (string, []byte) {
	var (
		path string
		v    any
	)
	switch rq.Kind {
	case loadgen.KindWindow:
		path, v = "/query/window", server.WindowRequest{
			Window: [4]float64{rq.Window.MinX, rq.Window.MinY, rq.Window.MaxX, rq.Window.MaxY},
			Tech:   rq.Tech.String()}
	case loadgen.KindPoint:
		path, v = "/query/point", server.PointRequest{Point: [2]float64{rq.Point.X, rq.Point.Y}}
	default:
		path, v = "/query/knn", server.KNNRequest{Point: [2]float64{rq.Point.X, rq.Point.Y}, K: rq.K}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %s request: %v", path, err))
	}
	return path, b
}

// probeMerge times the router's k-NN merge (KNNMerger Add and Results) on
// every shard's answer to the k-NN requests.
func (p probeTarget) probeMerge(m metrics) {
	var st stat
	for _, rq := range p.stream {
		if rq.Kind != loadgen.KindKNN {
			continue
		}
		parts := make([]store.NearestResult, len(p.shardOrgs))
		for i, org := range p.shardOrgs {
			parts[i] = org.NearestQuery(rq.Point, rq.K)
		}
		t0 := time.Now()
		mg := shard.NewKNNMerger(rq.K)
		for _, r := range parts {
			for i, id := range r.IDs {
				mg.Add(uint64(id), r.Dists[i])
			}
		}
		mg.Results()
		st.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	m.set("shard.merge_us", st.mean(), "us")
}
