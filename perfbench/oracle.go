package main

import (
	"fmt"
	"slices"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/exp"
	"spatialcluster/internal/loadgen"
	"spatialcluster/internal/object"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// answer is one read's result in the form the oracle compares: window and
// point IDs as a sorted set, k-NN IDs in rank order with their distances.
type answer struct {
	ids   []uint64
	dists []float64 // k-NN only
	cands int
}

// reader issues read requests to a system under test.
type reader interface {
	read(rq loadgen.Request) (answer, error)
}

// clientReader reads through a daemon's JSON API.
type clientReader struct{ c *server.Client }

func (r clientReader) read(rq loadgen.Request) (answer, error) {
	switch rq.Kind {
	case loadgen.KindWindow:
		resp, err := r.c.Window(rq.Window, rq.Tech.String())
		return setAnswer(resp.IDs, resp.Candidates), err
	case loadgen.KindPoint:
		resp, err := r.c.Point(rq.Point)
		return setAnswer(resp.IDs, resp.Candidates), err
	default:
		resp, err := r.c.KNN(rq.Point, rq.K)
		return answer{ids: resp.IDs, dists: resp.Dists, cands: resp.Candidates}, err
	}
}

func setAnswer(ids []uint64, cands int) answer {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return answer{ids: ids, cands: cands}
}

func toWire(ids []object.ID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// refRead answers rq on the reference store in-process and returns the
// modelled I/O it charged.
func refRead(org store.Organization, rq loadgen.Request) (answer, disk.Cost) {
	before := org.Env().Disk.Cost()
	var a answer
	switch rq.Kind {
	case loadgen.KindWindow:
		r := org.WindowQuery(rq.Window, rq.Tech)
		a = setAnswer(toWire(r.IDs), r.Candidates)
	case loadgen.KindPoint:
		r := org.PointQuery(rq.Point)
		a = setAnswer(toWire(r.IDs), r.Candidates)
	default:
		r := org.NearestQuery(rq.Point, rq.K)
		a = answer{ids: toWire(r.IDs), dists: r.Dists, cands: r.Candidates}
	}
	return a, org.Env().Disk.Cost().Sub(before)
}

// reference is the oracle of a read stream: the reference store's answer
// to every request, and the paper's modelled cost of the stream.
type reference struct {
	answers    []answer
	answerSum  int     // answers over the whole stream
	candSum    int     // filter-step candidates over the whole stream
	modelMSOps float64 // modelled disk ms per request
}

// referencePass runs the stream serially on the reference store under the
// paper's query-cost convention: before each request the data and object
// pages are cooled and only the R*-tree directory stays buffered
// (exp.CoolObjectPages), so the modelled cost per request does not depend on
// the order of the stream or on what ran before it.
func referencePass(org store.Organization, stream []loadgen.Request) reference {
	ref := reference{answers: make([]answer, len(stream))}
	p := org.Env().Params()
	var total float64
	for i, rq := range stream {
		exp.CoolObjectPages(org)
		a, cost := refRead(org, rq)
		ref.answers[i] = a
		ref.answerSum += len(a.ids)
		ref.candSum += a.cands
		total += cost.TimeMS(p)
	}
	ref.modelMSOps = total / float64(len(stream))
	return ref
}

// checkAnswer compares a served answer with the reference: the same ID set
// for windows and points; for k-NN the same IDs in the same distance order,
// with the same distances, ascending.
func checkAnswer(rq loadgen.Request, got, want answer) error {
	if !slices.Equal(got.ids, want.ids) {
		return fmt.Errorf("%v answer %v, reference %v", rq.Kind, head(got.ids), head(want.ids))
	}
	if rq.Kind != loadgen.KindKNN {
		return nil
	}
	if !slices.Equal(got.dists, want.dists) {
		return fmt.Errorf("knn distances %v, reference %v", got.dists, want.dists)
	}
	if !slices.IsSorted(got.dists) {
		return fmt.Errorf("knn distances out of order: %v", got.dists)
	}
	return nil
}

func head(ids []uint64) string {
	if len(ids) > 6 {
		return fmt.Sprintf("%v… (%d ids)", ids[:6], len(ids))
	}
	return fmt.Sprint(ids)
}
