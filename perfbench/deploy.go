package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"spatialcluster/internal/buffer"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/exp"
	"spatialcluster/internal/router"
	"spatialcluster/internal/server"
	"spatialcluster/internal/shard"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// servedSpec is what a served workload sets; everything else is the shipped
// default of sdbd and sdbrouter (server.Config{}, router.Config{}, JSON, LRU
// buffer, cluster organization, -wal-sync-every 1).
type servedSpec struct {
	scale    int  // map A-1 at this scale
	bufPages int  // buffer pages per sdbd
	wal      bool // each sdbd logs to a WAL with an fsync per commit
	shards   int  // 0: clients talk to one sdbd; n: sdbrouter over n sdbd
	mutEvery int  // 0: read-only; n: every n-th op of the stream mutates
}

// deployment is one running system under test: the stores, the sdbd
// handlers serving them over loopback, and for a sharded spec the router in
// front of them.
type deployment struct {
	ds      *datagen.Dataset
	pmap    *shard.Map           // sharded specs only
	orgs    []store.Organization // what each sdbd serves (a *wal.Store under -wal)
	servers []*server.Server
	router  *router.Router
	shardCl []*server.Client // the router's shard clients
	base    string           // URL the benchmark's clients talk to
	walDirs []string

	https    []*http.Server
	serveWG  sync.WaitGroup
	errMu    sync.Mutex
	serveErr error
}

// dataSeed is the generation seed of every workload's maps: the database is
// the one sdbd builds by default (-seed 0). The workload seed drives what
// varies between runs — the request streams, and for the join the order the
// objects arrive in — so runs on different seeds measure one database and
// their spread is the system's, not the map generator's.
const dataSeed = 0

// genDataset generates map A-1 of the paper's series A at the given scale.
func genDataset(scale int) *datagen.Dataset {
	return datagen.Generate(datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: scale, Seed: dataSeed})
}

// buildOrg builds the cluster organization over ds the way sdbd does: an
// LRU buffer of bufPages pages on the in-memory backend, objects inserted in
// generation order.
func buildOrg(ds *datagen.Dataset, bufPages int) store.Organization {
	env := store.NewEnvPolicy(bufPages, buffer.PolicyLRU, disk.DefaultParams(), nil)
	return exp.BuildOn(exp.OrgCluster, ds, env, ds.Spec.SmaxBytes()).Org
}

// splitDataset returns the part of ds each shard of pmap owns, exactly as
// sdbd -shards n -shard-of i computes it.
func splitDataset(ds *datagen.Dataset, pmap *shard.Map) []*datagen.Dataset {
	parts := make([]*datagen.Dataset, pmap.N())
	for i := range parts {
		parts[i] = &datagen.Dataset{Spec: ds.Spec}
	}
	for i, o := range ds.Objects {
		p := parts[pmap.ShardOfKey(ds.MBRs[i])]
		p.Objects = append(p.Objects, o)
		p.MBRs = append(p.MBRs, ds.MBRs[i])
	}
	return parts
}

// deploy goes from nothing to ready: it generates the dataset, builds one
// store per sdbd, opens their logs, starts the daemons on loopback and, for a
// sharded spec, the router. It is the span setup_s measures.
func deploy(spec servedSpec, workDir string) (*deployment, error) {
	d := &deployment{ds: genDataset(spec.scale)}
	parts := []*datagen.Dataset{d.ds}
	if spec.shards > 0 {
		d.pmap = shard.FromKeys(d.ds.MBRs, spec.shards)
		parts = splitDataset(d.ds, d.pmap)
	}
	var urls []string
	for _, part := range parts {
		org := buildOrg(part, spec.bufPages)
		if spec.wal {
			dir, err := os.MkdirTemp(workDir, "wal-")
			if err != nil {
				return nil, errors.Join(err, d.close())
			}
			d.walDirs = append(d.walDirs, dir)
			ws, err := wal.Create(org, dir, wal.Options{SyncEvery: 1})
			if err != nil {
				return nil, errors.Join(err, d.close())
			}
			org = ws
		}
		srv := server.New(org, server.Config{})
		d.orgs = append(d.orgs, org)
		d.servers = append(d.servers, srv)
		url, err := d.serve(srv.Handler())
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		urls = append(urls, url)
	}
	d.base = urls[0]
	if spec.shards > 0 {
		// sdbrouter's flag defaults: 64 keep-alive connections and 4 tries
		// per shard request.
		for i, u := range urls {
			c := server.NewClient(u, 64)
			c.Retry = &server.Retry{Attempts: 4, Seed: int64(i)}
			d.shardCl = append(d.shardCl, c)
		}
		rt, err := router.New(d.pmap, d.shardCl, router.Config{})
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.router = rt
		if d.base, err = d.serve(rt.Handler()); err != nil {
			return nil, errors.Join(err, d.close())
		}
	}
	return d, nil
}

// serve mounts h on a fresh loopback listener and returns its URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	d.https = append(d.https, hs)
	d.serveWG.Add(1)
	go func() {
		defer d.serveWG.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.errMu.Lock()
			d.serveErr = err
			d.errMu.Unlock()
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// plain returns the organization under shard i, without its WAL wrapper.
func (d *deployment) plain(i int) store.Organization {
	if ws, ok := d.orgs[i].(*wal.Store); ok {
		return ws.Underlying()
	}
	return d.orgs[i]
}

// dataPages is the pages the served stores occupy, summed over shards.
func (d *deployment) dataPages() int {
	n := 0
	for _, org := range d.orgs {
		n += org.Stats().OccupiedPages
	}
	return n
}

// close stops every daemon and waits for it, closes the logs and removes
// their directories. The stores stay usable in-process.
func (d *deployment) close() error {
	var errs []error
	for _, hs := range d.https {
		errs = append(errs, hs.Close())
	}
	d.https = nil
	d.serveWG.Wait()
	for _, c := range d.shardCl {
		c.HTTP.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range d.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	d.servers = nil
	for i, org := range d.orgs {
		if ws, ok := org.(*wal.Store); ok {
			errs = append(errs, ws.Close())
			d.orgs[i] = ws.Underlying()
		}
	}
	for _, dir := range d.walDirs {
		errs = append(errs, os.RemoveAll(dir))
	}
	d.walDirs = nil
	d.errMu.Lock()
	errs = append(errs, d.serveErr)
	d.errMu.Unlock()
	return errors.Join(errs...)
}

// setupRuns is how many times a run goes from seed to ready; setup_s is the
// median. The first builds also serve as the reference (and model) stores,
// so repeating set-up costs one extra build.
const setupRuns = 3

// timedSetups runs setup setupRuns times and returns the results in order
// with the median duration. On error it tears down what it built.
func timedSetups[T any](setup func() (T, error), teardown func(T) error) ([]T, time.Duration, error) {
	var (
		out  []T
		durs []time.Duration
	)
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			for _, o := range out {
				err = errors.Join(err, teardown(o))
			}
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		durs = append(durs, time.Since(t0))
		out = append(out, v)
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	return out, durs[len(durs)/2], nil
}
