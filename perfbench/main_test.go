package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"spatialcluster/internal/datagen"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/loadgen"
	"spatialcluster/internal/object"
)

// testScale keeps the tests' maps small: map A-1 at scale 256 has about 500
// objects.
const testScale = 256

var (
	testRead  = servedSpec{scale: testScale, bufPages: 8192}
	testWrite = servedSpec{scale: testScale, bufPages: 256, wal: true, mutEvery: 4}
)

func TestSeedDeterminesInputs(t *testing.T) {
	ds := genDataset(testScale)
	if !reflect.DeepEqual(readStream(ds, 7), readStream(genDataset(testScale), 7)) {
		t.Fatal("one seed gave two different read streams")
	}
	if reflect.DeepEqual(readStream(ds, 7), readStream(ds, 8)) {
		t.Fatal("two seeds gave the same read stream")
	}
	if !reflect.DeepEqual(mutationStream(ds, 7), mutationStream(genDataset(testScale), 7)) {
		t.Fatal("one seed gave two different mutation streams")
	}
	if reflect.DeepEqual(mutationStream(ds, 7), mutationStream(ds, 8)) {
		t.Fatal("two seeds gave the same mutation stream")
	}
}

func TestSeedDeterminesAnswersAndModelledCost(t *testing.T) {
	stream := readStream(genDataset(testScale), 7)
	a := referencePass(buildOrg(genDataset(testScale), 8192), stream)
	b := referencePass(buildOrg(genDataset(testScale), 8192), stream)
	if a.answerSum != b.answerSum || a.modelMSOps != b.modelMSOps || !reflect.DeepEqual(a.answers, b.answers) {
		t.Fatalf("two builds disagree: %d answers %.6f model ms/op vs %d, %.6f",
			a.answerSum, a.modelMSOps, b.answerSum, b.modelMSOps)
	}
	if a.answerSum == 0 || a.modelMSOps <= 0 {
		t.Fatalf("degenerate reference: %d answers, %.3f model ms/op", a.answerSum, a.modelMSOps)
	}

	model := func() float64 {
		ds := genDataset(testScale)
		r := &servedRun{spec: testWrite, modelOrg: buildOrg(ds, testWrite.bufPages), stream: stream,
			muts: mutationStream(ds, 7)}
		r.global, r.sched = schedule(r.muts, testWrite.mutEvery)
		return r.modelPass(nil)
	}
	if m1, m2 := model(), model(); m1 != m2 || m1 <= 0 {
		t.Fatalf("write_mix model pass: %.6f then %.6f model ms/op", m1, m2)
	}

	j1, j2 := setupJoin(7), setupJoin(7)
	r1, r2 := joinOnce(j1, joinConfig(2, nil)), joinOnce(j2, joinConfig(2, nil))
	if err := checkJoin(r1, r2, j1); err != nil {
		t.Fatalf("one seed, two joins: %v", err)
	}
}

func TestScheduleKeepsEachIDOnOneClientInOrder(t *testing.T) {
	muts := mutationStream(genDataset(testScale), 7)
	global, per := schedule(muts, 4)
	if len(global) != 4*len(muts) {
		t.Fatalf("%d ops for %d mutations, want 4 per mutation", len(global), len(muts))
	}
	owner := map[uint64]int{}
	for c, steps := range per {
		last := -1
		for _, st := range steps {
			if st.mut < 0 {
				continue
			}
			if st.mut <= last {
				t.Fatalf("client %d: mutation %d after %d", c, st.mut, last)
			}
			last = st.mut
			id := mutID(muts[st.mut])
			if o, ok := owner[id]; ok && o != c {
				t.Fatalf("id %d on clients %d and %d", id, o, c)
			}
			owner[id] = c
		}
	}
}

// corruptReader changes the last ID of every non-empty answer.
type corruptReader struct{ inner reader }

func (r corruptReader) read(rq loadgen.Request) (answer, error) {
	a, err := r.inner.read(rq)
	if len(a.ids) > 0 {
		a.ids[len(a.ids)-1]++
	}
	return a, err
}

func TestCorruptedAnswersAreCounted(t *testing.T) {
	dep, err := deploy(testRead, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dep.close(); err != nil {
			t.Error(err)
		}
	}()
	r := &servedRun{spec: testRead, dep: dep, ref: buildOrg(dep.ds, testRead.bufPages)}
	r.prepare(7, false)
	defer r.disconnect()
	r.readers[0] = corruptReader{r.readers[0]}
	w := closedLoop(clients, 300*time.Millisecond, r.op)

	want := 0
	for i := 0; i < w.tallies[0].attempted; i++ {
		if len(r.oracle.answers[(i*clients)%len(r.stream)].ids) > 0 {
			want++
		}
	}
	if want == 0 || w.tallies[0].failed != want {
		t.Fatalf("corrupting client: %d of %d ops failed, want %d", w.tallies[0].failed, w.tallies[0].attempted, want)
	}
	if w.tallies[1].failed != 0 || w.tallies[1].attempted == 0 {
		t.Fatalf("honest client: %d of %d ops failed", w.tallies[1].failed, w.tallies[1].attempted)
	}
}

func TestWriteMixOracle(t *testing.T) {
	run := func(t *testing.T, corrupt bool) result {
		dep, err := deploy(testWrite, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := dep.close(); err != nil {
				t.Error(err)
			}
		}()
		r := &servedRun{spec: testWrite, dep: dep, ref: buildOrg(dep.ds, testWrite.bufPages),
			modelOrg: buildOrg(dep.ds, testWrite.bufPages)}
		r.prepare(7, false)
		defer r.disconnect()
		w := closedLoop(clients, 300*time.Millisecond, r.op)
		res := result{Attempted: w.attempted(), Failed: w.failed(), Metrics: metrics{}}
		if res.Failed != 0 || len(w.latencies(true)) == 0 {
			t.Fatalf("%d of %d ops failed, %d mutations", res.Failed, res.Attempted, len(w.latencies(true)))
		}
		if corrupt {
			// One acknowledgement reports the wrong outcome, and one object
			// reaches the served store without the reference seeing it.
			flipped := false
			for c := range r.acks {
				for i, a := range r.acks[c] {
					if !flipped && r.muts[a.mut].Kind != datagen.OpInsert {
						r.acks[c][i].existed = !a.existed
						flipped = true
					}
				}
			}
			if !flipped {
				t.Fatal("no delete or update was acknowledged")
			}
			stray := object.New(object.ID(1<<62), geom.NewPolyline([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.51, 0.51)}), 0)
			if err := r.cl[0].Insert(stray, stray.Bounds()); err != nil {
				t.Fatal(err)
			}
		}
		rep := report{Samples: map[string]int{}}
		r.verifyFinal(&res, &rep)
		return res
	}
	t.Run("clean", func(t *testing.T) {
		if res := run(t, false); res.Failed != 0 {
			t.Fatalf("%d failures on a clean run", res.Failed)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		// The flipped acknowledgement and the full-space window each count.
		if res := run(t, true); res.Failed < 2 {
			t.Fatalf("%d failures, want at least 2", res.Failed)
		}
	})
}

func TestWrongJoinIsCounted(t *testing.T) {
	in := setupJoin(7)
	ref := joinOnce(in, joinConfig(1, nil))
	if err := checkJoin(joinOnce(in, joinConfig(2, nil)), ref, in); err != nil {
		t.Fatal(err)
	}
	bad := ref
	bad.ResultPairs++
	if checkJoin(bad, ref, in) == nil {
		t.Fatal("a join with one pair too many passed the check")
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program runs and prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, ledgerMetrics)
}
