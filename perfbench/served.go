package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/loadgen"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// The served workloads. Sizes are map A-1 at scale 8: 16,432 objects in
// about 5,650 pages.
var (
	// readFit: one sdbd whose buffer holds every page, warmed before timing.
	readFit = servedSpec{scale: 8, bufPages: 8192}
	// writeMix: one sdbd at its default 256-page buffer behind a WAL, with
	// one mutation per three reads.
	writeMix = servedSpec{scale: 8, bufPages: 256, wal: true, mutEvery: 4}
	// routedRead: read_fit's data, stream and buffers behind sdbrouter over
	// two Hilbert-range shards.
	routedRead = servedSpec{scale: 8, bufPages: 8192, shards: 2}
)

const (
	streamLen = 4096  // read requests, cycled through by the clients
	mutLen    = 16384 // write_mix mutations; never repeated, so this caps a run
	modelOps  = 4096  // length of write_mix's serial model pass
	verifyOps = 1024  // reads of write_mix's final-state check
)

// readStream is the read stream of the served workloads: loadgen's default
// mix of 50% windows (area 0.001, complete read), 25% points, 25% 10-NN.
func readStream(ds *datagen.Dataset, seed int64) []loadgen.Request {
	return loadgen.NewStream(ds, loadgen.StreamSpec{
		N: streamLen, WindowFrac: 0.5, PointFrac: 0.25, KNNFrac: 0.25,
		WindowArea: 0.001, K: 10, Tech: store.TechComplete, Seed: seed + 4,
	})
}

// mutationStream is write_mix's mutation stream: inserts and deletes in
// balance so the store keeps its size, updates, and half of the victims
// drawn from the hotspot.
func mutationStream(ds *datagen.Dataset, seed int64) []datagen.Op {
	return ds.MixedWorkload(datagen.MixSpec{
		Ops: mutLen, InsertFrac: 0.3, DeleteFrac: 0.3, UpdateFrac: 0.4,
		HotspotFrac: 0.5, Seed: seed + 5,
	})
}

// step is one op of a write_mix schedule: a mutation (mut >= 0, an index
// into the mutation stream) or a read (an index into the read stream,
// cycled).
type step struct{ mut, read int }

// schedule interleaves reads and mutations, one mutation per every ops, in
// one global order and deals that order to the clients: reads round-robin,
// mutations by object ID, so all mutations of one ID go through one client
// in stream order and the final state does not depend on timing.
func schedule(muts []datagen.Op, every int) (global []step, perClient [][]step) {
	perClient = make([][]step, clients)
	reads := 0
	for m := 0; m < len(muts); {
		var st step
		if len(global)%every == every-1 {
			st = step{mut: m, read: -1}
			perClient[int(mutID(muts[m])%clients)] = append(perClient[int(mutID(muts[m])%clients)], st)
			m++
		} else {
			st = step{mut: -1, read: reads}
			perClient[reads%clients] = append(perClient[reads%clients], st)
			reads++
		}
		global = append(global, st)
	}
	return global, perClient
}

func mutID(m datagen.Op) uint64 {
	if m.Kind == datagen.OpDelete {
		return uint64(m.ID)
	}
	return uint64(m.Obj.ID)
}

// applyMut applies m to an in-process store and reports whether the victim
// of a delete or update existed (inserts report true).
func applyMut(org store.Organization, m datagen.Op) bool {
	switch m.Kind {
	case datagen.OpInsert:
		org.Insert(m.Obj, m.Key)
		return true
	case datagen.OpDelete:
		return org.Delete(m.ID)
	default:
		return org.Update(m.Obj, m.Key)
	}
}

// sendMut sends m through a daemon's JSON API.
func sendMut(c *server.Client, m datagen.Op) (bool, error) {
	switch m.Kind {
	case datagen.OpInsert:
		return true, c.Insert(m.Obj, m.Key)
	case datagen.OpDelete:
		return c.Delete(m.ID)
	default:
		return c.Update(m.Obj, m.Key)
	}
}

// ack is one acknowledged mutation as the client saw it.
type ack struct {
	mut     int
	existed bool
}

// servedRun is the state of one run of a served workload.
type servedRun struct {
	spec    servedSpec
	dep     *deployment
	ref     store.Organization // the single in-process reference store
	stream  []loadgen.Request
	oracle  reference
	cl      []*server.Client // one per benchmark client, one connection each
	readers []reader         // the clients' untraced read path
	pos     []int            // each client's cursor into its schedule

	// write_mix only.
	muts     []datagen.Op
	global   []step
	sched    [][]step
	acks     [][]ack
	modelOrg store.Organization // store of the serial model pass
	mutTimes *mutTimes          // traced runs: model-pass mutation call times

	tr *tracer // non-nil while a traced window runs
}

// runServed returns the run function of a served workload.
func runServed(spec servedSpec) runFunc {
	return func(cfg runConfig, res *result, rep *report) (err error) {
		deps, setup, err := timedSetups(func() (*deployment, error) {
			return deploy(spec, cfg.workDir)
		}, (*deployment).close)
		if err != nil {
			return err
		}
		dep := deps[len(deps)-1]
		defer func() { err = errors.Join(err, dep.close()) }()
		// The other set-ups stop serving; their stores stay as the reference
		// and the model store.
		for _, d := range deps[:len(deps)-1] {
			if err := d.close(); err != nil {
				return err
			}
		}
		r := &servedRun{spec: spec, dep: dep, ref: deps[0].plain(0), modelOrg: deps[1].plain(0)}
		if spec.shards > 0 {
			r.ref = buildOrg(dep.ds, spec.bufPages)
		}
		rep.Env.DataPages = dep.dataPages()
		rep.Env.BufferPages = spec.bufPages * len(dep.orgs)
		rep.Env.FlushPolicy = "LRU write-back buffer, no WAL"
		if spec.wal {
			rep.Env.FlushPolicy = "LRU write-back buffer; WAL fsync before every acknowledged commit (sync every 1)"
		}
		return r.run(cfg, setup, res, rep)
	}
}

// prepare generates the run's inputs from the seed, runs the reference and
// model passes, and connects the clients. It returns the paper's modelled
// disk ms per op of the stream.
func (r *servedRun) prepare(seed int64, traced bool) float64 {
	r.stream = readStream(r.dep.ds, seed)
	r.oracle = referencePass(r.ref, r.stream)
	model := r.oracle.modelMSOps
	if r.spec.mutEvery > 0 {
		r.muts = mutationStream(r.dep.ds, seed)
		r.global, r.sched = schedule(r.muts, r.spec.mutEvery)
		r.acks = make([][]ack, clients)
		if traced {
			r.mutTimes = &mutTimes{}
		}
		model = r.modelPass(r.mutTimes)
	}
	r.pos = make([]int, clients)
	r.cl, r.readers = nil, nil
	for c := 0; c < clients; c++ {
		cl := server.NewClient(r.dep.base, 1)
		r.cl = append(r.cl, cl)
		r.readers = append(r.readers, clientReader{cl})
	}
	return model
}

// disconnect closes the clients' connections.
func (r *servedRun) disconnect() {
	for _, c := range r.cl {
		c.HTTP.CloseIdleConnections()
	}
}

func (r *servedRun) run(cfg runConfig, setup time.Duration, res *result, rep *report) error {
	model := r.prepare(cfg.seed, cfg.trace)
	defer r.disconnect()
	rep.Samples["stream_requests"] = len(r.stream)
	rep.Samples["stream_answers"] = r.oracle.answerSum

	// Warm-up, untimed: every page into the buffer where it fits, then the
	// read stream over the wire until the process is in its steady state.
	// The store still equals the reference here, so these answers are
	// checked exactly on every workload.
	if r.spec.mutEvery == 0 {
		for i := range r.dep.orgs {
			r.dep.plain(i).WindowQuery(geom.R(0, 0, 1, 1), store.TechComplete)
		}
	}
	addWindow(r.warmup(), res, rep)

	if cfg.trace {
		return r.ledger(cfg, res, rep)
	}
	w := closedLoop(clients, cfg.seconds, r.op)
	heap := liveHeapMB(r)
	addWindow(w, res, rep)
	r.verifyFinal(res, rep)

	all := w.latencies(false)
	muts := w.latencies(true)
	res.Metrics.set("setup_s", setup.Seconds(), "s")
	res.Metrics.set("qps", w.qps(), "1/s")
	res.Metrics.set("p50_ms", quantileMS(all, 0.50), "ms")
	res.Metrics.set("p95_ms", quantileMS(all, 0.95), "ms")
	res.Metrics.set("cpu_ms_per_op", w.cpuMSPerOp(), "ms")
	res.Metrics.set("heap_mb", heap, "MiB")
	res.Metrics.set("model_ms_per_op", model, "ms")
	rep.Extra.set("p99_ms", quantileMS(all, 0.99), "ms")
	if len(muts) > 0 {
		rep.Extra.set("mut_p50_ms", quantileMS(muts, 0.50), "ms")
		rep.Extra.set("mut_p95_ms", quantileMS(muts, 0.95), "ms")
	}
	rep.Extra.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	rep.Samples["ops"] = len(all)
	rep.Samples["mutations"] = len(muts)
	return nil
}

// warmup runs the read stream for warmDur, checked against the reference.
func (r *servedRun) warmup() window {
	n := make([]int, clients)
	return closedLoop(clients, warmDur, func(c int) (bool, bool, error) {
		k := (c + n[c]*clients) % len(r.stream)
		n[c]++
		got, err := r.readers[c].read(r.stream[k])
		if err != nil {
			return false, false, err
		}
		return false, false, checkAnswer(r.stream[k], got, r.oracle.answers[k])
	})
}

// op issues client c's next op of the measured window.
func (r *servedRun) op(c int) (mut, done bool, err error) {
	i := r.pos[c]
	st := step{mut: -1, read: c + i*clients}
	if r.sched != nil {
		if i == len(r.sched[c]) {
			return false, true, nil
		}
		st = r.sched[c][i]
	}
	r.pos[c]++
	if st.mut >= 0 {
		return true, false, r.mutate(c, st.mut)
	}
	k := st.read % len(r.stream)
	rq := r.stream[k]
	var got answer
	if r.tr != nil {
		got, err = r.tr.read(c, r.cl[c], rq)
	} else {
		got, err = r.readers[c].read(rq)
	}
	if err != nil {
		return false, false, err
	}
	if r.spec.mutEvery == 0 {
		return false, false, checkAnswer(rq, got, r.oracle.answers[k])
	}
	// Reads racing mutations have no single right answer; they must still
	// be well formed.
	return false, false, checkShape(rq, got)
}

// checkShape checks what every answer must satisfy whatever the store holds:
// no duplicate IDs, and k-NN answers of at most k in ascending distance.
func checkShape(rq loadgen.Request, got answer) error {
	if rq.Kind == loadgen.KindKNN {
		if len(got.ids) > rq.K || len(got.dists) != len(got.ids) || !slices.IsSorted(got.dists) {
			return fmt.Errorf("malformed knn answer: %d ids, distances %v", len(got.ids), got.dists)
		}
		return nil
	}
	if len(slices.Compact(slices.Clone(got.ids))) != len(got.ids) {
		return fmt.Errorf("%v answer repeats an id", rq.Kind)
	}
	return nil
}

// mutate sends mutation m for client c and records the acknowledgement.
func (r *servedRun) mutate(c, m int) error {
	var (
		existed bool
		err     error
	)
	if r.tr != nil {
		existed, err = r.tr.mutate(c, r.cl[c], r.muts[m])
	} else {
		existed, err = sendMut(r.cl[c], r.muts[m])
	}
	if err != nil {
		return err
	}
	r.acks[c] = append(r.acks[c], ack{mut: m, existed: existed})
	return nil
}

// verifyFinal is write_mix's oracle. The reference store replays every
// acknowledged mutation serially in stream order; each acknowledgement must
// match the reference's, and afterwards the served store must answer like
// the reference: the whole data space and verifyOps stream reads. Every
// mismatch is a failed op.
func (r *servedRun) verifyFinal(res *result, rep *report) {
	if r.spec.mutEvery == 0 {
		return
	}
	var acks []ack
	for _, a := range r.acks {
		acks = append(acks, a...)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].mut < acks[j].mut })
	for _, a := range acks {
		if want := applyMut(r.ref, r.muts[a.mut]); want != a.existed {
			res.Failed++
			rep.fail(fmt.Errorf("%v of %d acknowledged existed=%v, reference %v",
				r.muts[a.mut].Kind, mutID(r.muts[a.mut]), a.existed, want))
		}
	}
	rep.Samples["acked_mutations"] = len(acks)

	check := append([]loadgen.Request{{Kind: loadgen.KindWindow, Window: geom.R(0, 0, 1, 1)}},
		r.stream[:verifyOps]...)
	rd := clientReader{r.cl[0]}
	for _, rq := range check {
		res.Attempted++
		got, err := rd.read(rq)
		if err == nil {
			want, _ := refRead(r.ref, rq)
			err = checkAnswer(rq, got, want)
		}
		if err != nil {
			res.Failed++
			rep.fail(fmt.Errorf("final state: %w", err))
		}
	}
}

// modelPass runs the first modelOps ops of write_mix's global order serially
// on the model store, whose buffer starts as the build left it, and returns
// the paper's modelled disk ms per op. With t set it also times each
// Organization mutation call by kind.
func (r *servedRun) modelPass(t *mutTimes) float64 {
	org := r.modelOrg
	p := org.Env().Params()
	before := org.Env().Disk.Cost()
	for _, st := range r.global[:modelOps] {
		if st.mut < 0 {
			refRead(org, r.stream[st.read%len(r.stream)])
			continue
		}
		m := r.muts[st.mut]
		t0 := time.Now()
		applyMut(org, m)
		t.add(m.Kind, time.Since(t0))
	}
	return org.Env().Disk.Cost().Sub(before).TimeMS(p) / modelOps
}

// mutTimes accumulates in-process mutation call times by kind.
type mutTimes struct {
	sum [3]time.Duration
	n   [3]int
}

func (t *mutTimes) add(k datagen.OpKind, d time.Duration) {
	if t == nil {
		return
	}
	t.sum[k] += d
	t.n[k]++
}

// meanMS is the mean call time of kind k in milliseconds (0 if none ran).
func (t *mutTimes) meanMS(k datagen.OpKind) float64 {
	if t.n[k] == 0 {
		return 0
	}
	return ms(t.sum[k]) / float64(t.n[k])
}
