package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/exp"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/join"
	"spatialcluster/internal/loadgen"
	"spatialcluster/internal/obs"
	"spatialcluster/internal/store"
)

// joinScale is the scale of the join workload's maps C-1 and C-2: small
// enough that a 15 s run holds a few hundred joins, so its p95 has at least
// ten joins beyond it.
const joinScale = 64

// joinWorkers is the worker count of the timed joins. The timed join is the
// serial one: a pool of nproc workers plus the dispatcher and the garbage
// collector asks for more CPUs than the machine has, so its timings followed
// how much CPU the host's neighbours left over (on 2 vCPUs a competing
// busy loop slowed a 2-worker join by 46% and a serial one by 9%). The
// parallel, overlapped join still runs once per run, as the reference.
const joinWorkers = 1

// joinInputs are the two cluster organizations of C-1 ⋈ C-2 with the
// datasets they were built from.
type joinInputs struct {
	dsR, dsS *datagen.Dataset
	r, s     store.Organization
}

// joinOptions are the experiment options of the join inputs.
func joinOptions() exp.Options { return exp.Options{Scale: joinScale}.WithDefaults() }

// setupJoin generates C-1 and C-2 with version-b MBRs and builds their
// cluster organizations the way the parallel join benchmark does, except
// that the objects arrive in an order shuffled by the workload seed: the
// same maps, a different tree on every seed.
func setupJoin(seed int64) joinInputs {
	rng := rand.New(rand.NewSource(seed))
	gen := func(m datagen.MapID) *datagen.Dataset {
		ds := datagen.Generate(datagen.Spec{Map: m, Series: datagen.SeriesC, Scale: joinScale,
			Seed: dataSeed, MBRScale: exp.MBRScaleVersionB})
		rng.Shuffle(len(ds.Objects), func(i, j int) {
			ds.Objects[i], ds.Objects[j] = ds.Objects[j], ds.Objects[i]
			ds.MBRs[i], ds.MBRs[j] = ds.MBRs[j], ds.MBRs[i]
		})
		return ds
	}
	in := joinInputs{dsR: gen(datagen.Map1), dsS: gen(datagen.Map2)}
	o := joinOptions()
	in.r = exp.Build(exp.OrgCluster, in.dsR, o.BuildBufPages).Org
	in.s = exp.Build(exp.OrgCluster, in.dsS, o.BuildBufPages).Org
	return in
}

// joinConfig is the join of BENCH_parallel.json: SLM reads, Figure 14's
// 1,600-page buffer scaled by √scale, the given workers, overlapped
// dispatch when there is more than one.
func joinConfig(workers int, stages *obs.JoinStages) join.Config {
	return join.Config{
		BufferPages: joinOptions().ScaledBuffer(1600), Technique: store.TechSLM,
		Workers: workers, Overlap: true, Stages: stages,
	}
}

// joinOnce cools the data and object pages of both inputs and runs one join.
func joinOnce(in joinInputs, cfg join.Config) join.Result {
	exp.CoolObjectPages(in.r)
	exp.CoolObjectPages(in.s)
	return join.Run(in.r, in.s, cfg)
}

// checkJoin compares a join with the reference join: the same candidate and
// result pairs and the same modelled I/O.
func checkJoin(got, want join.Result, in joinInputs) error {
	p := in.r.Env().Params()
	if got.MBRPairs != want.MBRPairs || got.ResultPairs != want.ResultPairs ||
		got.IOTimeMS(p) != want.IOTimeMS(p) {
		return fmt.Errorf("join: %d mbr pairs, %d result pairs, %.3f model ms; reference %d, %d, %.3f",
			got.MBRPairs, got.ResultPairs, got.IOTimeMS(p), want.MBRPairs, want.ResultPairs, want.IOTimeMS(p))
	}
	return nil
}

// probeJoinExact times the join's refinement predicate, Decomposed.Intersects,
// on every pair of C-1 and C-2 objects whose keys intersect, and returns the
// mean time per test in microseconds.
func probeJoinExact(in joinInputs) float64 {
	decS := make([]*geom.Decomposed, len(in.dsS.Objects))
	for i, o := range in.dsS.Objects {
		decS[i] = geom.Decompose(o.Geom)
	}
	var d time.Duration
	tests := 0
	for i, o := range in.dsR.Objects {
		r := geom.Decompose(o.Geom)
		for j, k := range in.dsS.MBRs {
			if k.Intersects(in.dsR.MBRs[i]) {
				t0 := time.Now()
				r.Intersects(decS[j])
				d += time.Since(t0)
				tests++
			}
		}
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(max(tests, 1))
}

// runJoin is the join workload: C-1 ⋈ C-2 in-process, one serial join per
// op, one join at a time, every join checked against a parallel reference
// join.
func runJoin(cfg runConfig, res *result, rep *report) error {
	ins, setup, err := timedSetups(func() (joinInputs, error) { return setupJoin(cfg.seed), nil },
		func(joinInputs) error { return nil })
	if err != nil {
		return err
	}
	in := ins[len(ins)-1]
	ins = nil // the other set-ups are garbage from here on

	// The reference: the same join on one worker per CPU with overlapped
	// dispatch, an execution path of its own that must find the same pairs
	// and charge the same modelled I/O as the serial join.
	ref := joinOnce(in, joinConfig(runtime.NumCPU(), nil))
	p := in.r.Env().Params()
	rep.Env.DataPages = in.r.Stats().OccupiedPages + in.s.Stats().OccupiedPages
	rep.Env.BufferPages = joinOptions().ScaledBuffer(1600)
	rep.Env.FlushPolicy = "read-only; join buffers are private to each join and start cold"
	rep.Samples["mbr_pairs"] = ref.MBRPairs
	rep.Samples["result_pairs"] = ref.ResultPairs

	var last join.Result
	run := func(stages *obs.JoinStages) func(int) (bool, bool, error) {
		return func(int) (bool, bool, error) {
			last = joinOnce(in, joinConfig(joinWorkers, stages))
			return false, false, checkJoin(last, ref, in)
		}
	}
	addWindow(closedLoop(1, warmDur, run(nil)), res, rep)

	if !cfg.trace {
		w := closedLoop(1, cfg.seconds, run(nil))
		heap := liveHeapMB(in)
		addWindow(w, res, rep)
		lat := w.latencies(false)
		res.Metrics.set("setup_s", setup.Seconds(), "s")
		res.Metrics.set("qps", w.qps(), "1/s")
		res.Metrics.set("p50_ms", quantileMS(lat, 0.50), "ms")
		res.Metrics.set("p95_ms", quantileMS(lat, 0.95), "ms")
		res.Metrics.set("cpu_ms_per_op", w.cpuMSPerOp(), "ms")
		res.Metrics.set("heap_mb", heap, "MiB")
		res.Metrics.set("model_ms_per_op", ref.IOTimeMS(p), "ms")
		rep.Extra.set("p99_ms", quantileMS(lat, 0.99), "ms")
		rep.Extra.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
		rep.Samples["ops"] = len(lat)
		if beyond := len(lat) - len(lat)*95/100; beyond < 10 {
			rep.note("only %d joins beyond p95", beyond)
		}
		return nil
	}

	// Traced run: an untraced window for the baseline, then a window whose
	// joins accumulate the join package's stage clocks.
	m := res.Metrics
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wu := closedLoop(1, cfg.seconds, run(nil))
	runtime.ReadMemStats(&after)
	addWindow(wu, res, rep)
	n := float64(max(len(wu.latencies(false)), 1))
	setProcess(m, before, after, n)
	io := last.MBRJoinCost.Add(last.TransferCost)
	m.set("disk.pages_read_per_op", float64(io.PagesRead), "1/op")
	m.set("disk.requests_per_op", float64(io.ReadRequests), "1/op")
	m.set("disk.pages_written_per_op", float64(io.PagesWritten), "1/op")
	m.set("geom.exact_tests_per_op", float64(last.ExactTests), "1/op")
	m.set("geom.exact_test_us", probeJoinExact(in), "us")
	m.set("join.result_per_mbr_pair", float64(ref.ResultPairs)/float64(max(ref.MBRPairs, 1)), "ratio")

	stages := &obs.JoinStages{}
	wt := closedLoop(1, cfg.seconds, run(stages))
	addWindow(wt, res, rep)
	joins := wt.latencies(false)
	k := float64(max(len(joins), 1))
	mbr := float64(stages.MBRJoinNS.Load()) / 1e6 / k
	prep := float64(stages.PrepareNS.Load()) / 1e6 / k
	stall := float64(stages.StallNS.Load()) / 1e6 / k
	m.set("join.mbr_join_ms", mbr, "ms")
	m.set("join.prepare_ms", prep, "ms")
	m.set("join.stall_ms", stall, "ms")
	refine := float64(stages.RefineNS.Load()) / 1e6 / k
	m.set("join.refine_ms", refine, "ms")
	// The serial join's timeline is the MBR join, then preparation and
	// refinement group by group; nothing overlaps and nothing stalls.
	m.account("join", meanMS(joins), mbr+prep+stall+refine)
	m.set("trace_overhead", wt.qps()/wu.qps(), "ratio")
	rep.Extra.set("untraced_qps", wu.qps(), "1/s")
	rep.Extra.set("traced_qps", wt.qps(), "1/s")
	rep.Samples["untraced_ops"] = len(wu.latencies(false))
	rep.Samples["traced_ops"] = len(joins)

	// The store-level probes run on C-1 with the served workloads' stream.
	pt := probeTarget{org: in.r, ds: in.dsR, bufPages: joinOptions().BuildBufPages,
		stream: loadgen.NewStream(in.dsR, loadgen.StreamSpec{N: probeN, K: 10, Tech: store.TechComplete, Seed: cfg.seed + 4})}
	pt.probeStore(m)
	pt.probeTree(m)
	pt.probeObjects(m)
	pt.probeInsert(m)
	completeLedger(m)
	return nil
}
