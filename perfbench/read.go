package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anchor"
	"anchor/internal/corpus"
	"anchor/internal/experiments"
	"anchor/internal/query"
	"anchor/internal/serve"
)

// The read workloads serve one trained algorithm's snapshots. cbow is the
// cheapest trainer at |V| = 10k, which keeps set-up short.
const (
	readAlgo    = "cbow"
	readClients = 2 // closed-loop clients (the reference machine has 2 vCPUs)
	setupReps   = 3 // set-ups per untraced run; setup_s is their median
	timedRounds = 3 // rounds of the timed phase; timings are their median
)

// readScale sizes a read workload.
type readScale struct {
	vocab, dim int
	pool       int     // distinct requests per class
	hotRate    float64 // nominal read-hot ops per second of --seconds
	churnRate  float64 // nominal read-churn ops per second of --seconds
	warmBlocks int     // warm-up ops, in blocks
}

func readScaleFor(tiny bool) readScale {
	if tiny {
		return readScale{vocab: 400, dim: 16, pool: 4, hotRate: 20, churnRate: 20, warmBlocks: 1}
	}
	return readScale{vocab: 10_000, dim: 100, pool: 48, hotRate: 450, churnRate: 170, warmBlocks: 4}
}

// readConfig is BenchConfig at the read path's acceptance scale.
func readConfig(sc readScale) experiments.Config {
	cfg := experiments.BenchConfig()
	cfg.Corpus.VocabSize = sc.vocab
	return cfg
}

type opKind int

const (
	opVectors opKind = iota
	opNeighbors
	opDelta
)

// class is one request class of a workload mix.
type class struct {
	name   string
	weight int // ops per block
	kind   opKind
	year   int
	bits   int
	words  int
	ann    bool
}

// reqSpec is one distinct request: its HTTP form (encoded once) and the
// parameters the lower-layer replays call the library with.
type reqSpec struct {
	cls    int
	kind   opKind
	year   int
	bits   int
	ann    bool
	words  []string
	method string
	target string
	body   []byte
}

// plan is a workload's seeded operation list: warm-up ops, then timed ops,
// each an index into the pool of distinct requests.
type plan struct {
	classes []class
	pool    []reqSpec
	warm    []int
	ops     []int
	dim     int
	churn   bool
}

// snapKey identifies one served snapshot of the read algorithm.
type snapKey struct {
	year, bits int
}

func (s snapKey) ref(dim int) query.Ref {
	b := s.bits
	if b >= 32 {
		b = 0
	}
	return query.Ref{Algo: readAlgo, Year: s.year, Dim: dim, Seed: 1, Bits: b}
}

// hotClasses is the read-hot mix, in ops per block of 36. Sorted by cost
// on one processor (vectors < ann < f64 ~ f32 < b8 < 8-word < delta <
// b1), the cumulative shares put p50 inside the f64/f32 group (22-61%)
// and p99 inside the b1 class (89-100%), never on a class boundary.
func hotClasses() []class {
	return []class{
		{name: "vectors", weight: 4, kind: opVectors, year: 2017, bits: 32, words: 2},
		{name: "ann-b32", weight: 4, kind: opNeighbors, year: 2017, bits: 32, words: 1, ann: true},
		{name: "nbr-b32", weight: 6, kind: opNeighbors, year: 2017, bits: 32, words: 1},
		{name: "nbr-b16", weight: 8, kind: opNeighbors, year: 2017, bits: 16, words: 1},
		{name: "nbr-b8", weight: 5, kind: opNeighbors, year: 2017, bits: 8, words: 1},
		{name: "nbr-b1", weight: 4, kind: opNeighbors, year: 2017, bits: 1, words: 1},
		{name: "nbr8-b32", weight: 2, kind: opNeighbors, year: 2017, bits: 32, words: 8},
		{name: "delta4-b32", weight: 3, kind: opDelta, year: 2017, bits: 32, words: 4},
	}
}

// churnHot is read-churn's hot snapshot (full precision, the largest);
// churnCycle is its cold cycle over the packed-code rungs of the
// precision ladder x years, in visiting order. Two cold snapshots are
// queried through the IVF index, so their loads also read the .ann
// sidecar. The query budget holds the hot snapshot plus two of the
// largest cold ones (two clients may load at once), so the hot snapshot
// is never evicted, while the seven other cold snapshots loaded between
// two visits of one outweigh the room left: every cold request loads.
var churnHot = class{name: "hot-b32-y17", kind: opNeighbors, year: 2017, bits: 32, words: 1}

func churnCycle() []class {
	var out []class
	for _, s := range []struct {
		year, bits int
		ann        bool
	}{
		{2017, 1, false}, {2018, 8, true}, {2017, 2, false}, {2018, 4, false},
		{2017, 8, false}, {2018, 1, false}, {2017, 4, true}, {2018, 2, false},
	} {
		out = append(out, class{
			name: fmt.Sprintf("cold-b%d-y%d", s.bits, s.year%100), kind: opNeighbors,
			year: s.year, bits: s.bits, words: 1, ann: s.ann,
		})
	}
	return out
}

// vocabulary returns the read corpus's words (row order of every snapshot).
func vocabulary(cfg experiments.Config) []string {
	return corpus.Generate(cfg.Corpus, corpus.Wiki17).Vocab.Words
}

// buildPool draws per distinct requests per class, with words drawn
// uniformly (distinct within one request).
func buildPool(rng *rand.Rand, classes []class, per int, words []string, dim int) []reqSpec {
	var pool []reqSpec
	for ci, c := range classes {
		for j := 0; j < per; j++ {
			seen := map[int]bool{}
			var ws []string
			for len(ws) < c.words {
				id := rng.Intn(len(words))
				if !seen[id] {
					seen[id] = true
					ws = append(ws, words[id])
				}
			}
			pool = append(pool, encodeSpec(reqSpec{cls: ci, kind: c.kind, year: c.year, bits: c.bits, ann: c.ann, words: ws}, dim))
		}
	}
	return pool
}

// encodeSpec fills in the HTTP form of a request.
func encodeSpec(s reqSpec, dim int) reqSpec {
	switch s.kind {
	case opVectors:
		q := url.Values{}
		q.Set("algo", readAlgo)
		q.Set("dim", strconv.Itoa(dim))
		q.Set("year", strconv.Itoa(s.year))
		q.Set("bits", strconv.Itoa(s.bits))
		q.Set("words", strings.Join(s.words, ","))
		s.method, s.target = http.MethodGet, "/v1/vectors?"+q.Encode()
	case opNeighbors:
		body := map[string]any{"algo": readAlgo, "words": s.words, "dim": dim, "year": s.year, "bits": s.bits}
		if s.ann {
			body["ann"] = true
		}
		s.method, s.target, s.body = http.MethodPost, "/v1/neighbors", mustJSON(body)
	case opDelta:
		body := map[string]any{"algo": readAlgo, "words": s.words, "dim": dim, "bits": s.bits}
		if s.ann {
			body["ann"] = true
		}
		s.method, s.target, s.body = http.MethodPost, "/v1/neighbors/delta", mustJSON(body)
	}
	return s
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // static request shapes always encode
	}
	return b
}

// planHot draws the read-hot op list: whole blocks with exact class
// counts, each block shuffled by the seed.
func planHot(seed int64, sc readScale, words []string, blocks int) *plan {
	rng := rand.New(rand.NewSource(seed))
	cls := hotClasses()
	p := &plan{classes: cls, dim: sc.dim}
	p.pool = buildPool(rng, cls, sc.pool, words, sc.dim)
	draw := func(blocks int) []int {
		var ops []int
		for b := 0; b < blocks; b++ {
			var block []int
			for ci, c := range cls {
				for j := 0; j < c.weight; j++ {
					block = append(block, ci)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, ci := range block {
				ops = append(ops, ci*sc.pool+rng.Intn(sc.pool))
			}
		}
		return ops
	}
	p.warm = draw(sc.warmBlocks)
	p.ops = draw(blocks)
	return p
}

// planChurn draws the read-churn op list: three hot requests, then the
// next snapshot of the cold cycle, repeated. The seed picks the words and
// where in the cycle the run starts. Warm-up and timed ops continue one
// cycle, and every list is whole cycles, so each cold request's snapshot
// was last visited a full cycle earlier and has been evicted.
func planChurn(seed int64, sc readScale, words []string, blocks int) *plan {
	rng := rand.New(rand.NewSource(seed))
	cycle := churnCycle()
	cls := append([]class{churnHot}, cycle...)
	cls[0].weight = 3 * len(cycle)
	for i := 1; i < len(cls); i++ {
		cls[i].weight = 1
	}
	p := &plan{classes: cls, dim: sc.dim, churn: true}
	p.pool = buildPool(rng, cls, sc.pool, words, sc.dim)
	start := rng.Intn(len(cycle))
	pos := 0
	draw := func(blocks int) []int {
		var ops []int
		for i := 0; i < blocks*4*len(cycle); i++ {
			ci := 0
			if i%4 == 3 {
				ci = 1 + (start+pos)%len(cycle)
				pos++
			}
			ops = append(ops, ci*sc.pool+rng.Intn(sc.pool))
		}
		return ops
	}
	p.warm = draw(sc.warmBlocks)
	p.ops = draw(blocks)
	return p
}

// blockSize is the op count of one block of the mix: every class appears
// exactly weight times in it.
func blockSize(classes []class) int {
	n := 0
	for _, c := range classes {
		n += c.weight
	}
	return n
}

// snapshots lists the distinct snapshots the plan reads, and which of them
// are queried through the IVF index.
func (p *plan) snapshots() (all []snapKey, annSnaps map[snapKey]bool) {
	seen := map[snapKey]bool{}
	annSnaps = map[snapKey]bool{}
	add := func(k snapKey, ann bool) {
		if !seen[k] {
			seen[k] = true
			all = append(all, k)
		}
		if ann {
			annSnaps[k] = true
		}
	}
	for _, c := range p.classes {
		add(snapKey{c.year, c.bits}, c.ann)
		if c.kind == opDelta {
			add(snapKey{2018, c.bits}, c.ann)
		}
	}
	return all, annSnaps
}

// readEnv is a set-up read workload: a restarted Service over a cache
// directory holding every snapshot, and its HTTP handler.
type readEnv struct {
	cfg      experiments.Config
	dir      string
	svc      *anchor.Service
	h        http.Handler
	budget   int64
	storeCap int
}

// setupRead trains and persists every snapshot the plan reads (and the
// IVF sidecars of the ANN-queried ones) into dir, then restarts: a fresh
// Service reopens dir and the warm-up ops run through its handler.
func setupRead(ctx context.Context, p *plan, cfg experiments.Config, dir string) (*readEnv, error) {
	snaps, annSnaps := p.snapshots()
	word := p.pool[0].words[0]
	svc0, err := anchor.NewService(anchor.WithConfig(cfg), anchor.WithCacheDir(dir))
	if err != nil {
		return nil, err
	}
	for _, s := range snaps {
		opts := []anchor.QueryOption{anchor.QueryYear(s.year), anchor.QueryPrecision(s.bits)}
		if _, err := svc0.Query(ctx, readAlgo, p.dim, []string{word}, opts...); err != nil {
			return nil, fmt.Errorf("setup %v: %w", s, err)
		}
		if annSnaps[s] {
			if _, err := svc0.Neighbors(ctx, readAlgo, p.dim, []string{word}, append(opts, anchor.QueryANN(true))...); err != nil {
				return nil, fmt.Errorf("setup ann %v: %w", s, err)
			}
		}
	}
	env := &readEnv{cfg: cfg, dir: dir, budget: 256 << 20}
	if p.churn {
		// The query budget holds the hot snapshot plus two of the largest
		// cold ones (two clients may load at once), never a whole cycle;
		// the store keeps one decoded artifact, so a load reads disk.
		sizes := map[string]int64{}
		for _, in := range svc0.ResidentSnapshots() {
			sizes[in.Ref] = in.Bytes
		}
		hot := sizes[snapKey{churnHot.year, churnHot.bits}.ref(p.dim).String()]
		var maxCold int64
		for _, c := range churnCycle() {
			maxCold = max(maxCold, sizes[snapKey{c.year, c.bits}.ref(p.dim).String()])
		}
		if hot == 0 || maxCold == 0 {
			return nil, fmt.Errorf("setup: snapshot sizes missing (%d resident)", len(sizes))
		}
		env.budget, env.storeCap = hot+2*maxCold+1, 1
	}
	env.svc, err = anchor.NewService(anchor.WithConfig(cfg), anchor.WithCacheDir(dir),
		anchor.WithQueryBudget(env.budget), anchor.WithCacheCapacity(env.storeCap))
	if err != nil {
		return nil, err
	}
	env.h = serve.New(env.svc, nil).Handler()
	res, _ := serveOps(env.h, p, p.warm, readClients, nil)
	if bad := res.non200(); bad > 0 {
		return nil, fmt.Errorf("setup: %d of %d warm-up requests failed", bad, len(p.warm))
	}
	return env, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.buf.Reset()
}

// opResults holds per-op outcomes of one pass.
type opResults struct {
	lat    []float64 // ms, around ServeHTTP
	status []int
	hash   []uint64
	size   []int
}

func (r opResults) non200() int {
	n := 0
	for _, s := range r.status {
		if s != http.StatusOK {
			n++
		}
	}
	return n
}

// extend appends the outcomes of the next ops.
func (r *opResults) extend(o opResults) {
	r.lat = append(r.lat, o.lat...)
	r.status = append(r.status, o.status...)
	r.hash = append(r.hash, o.hash...)
	r.size = append(r.size, o.size...)
}

// splitRounds cuts ops into at most n contiguous rounds of whole blocks,
// as equal as the block count allows.
func splitRounds(ops []int, block, n int) [][]int {
	blocks := len(ops) / block
	n = max(1, min(n, blocks))
	var out [][]int
	for r := 0; r < n; r++ {
		out = append(out, ops[r*blocks/n*block:(r+1)*blocks/n*block])
	}
	return out
}

// buildRequests encodes one *http.Request per op ahead of a pass.
func buildRequests(p *plan, ops []int) []*http.Request {
	reqs := make([]*http.Request, len(ops))
	for i, pi := range ops {
		s := p.pool[pi]
		reqs[i] = httptest.NewRequest(s.method, s.target, bytes.NewReader(s.body))
	}
	return reqs
}

// serveOps runs ops through the handler in a closed loop. With a tracer,
// each op records a client span and the serve span inside it.
func serveOps(h http.Handler, p *plan, ops []int, clients int, tr *tracer) (opResults, time.Duration) {
	reqs := buildRequests(p, ops)
	res := opResults{
		lat: make([]float64, len(ops)), status: make([]int, len(ops)),
		hash: make([]uint64, len(ops)), size: make([]int, len(ops)),
	}
	recs := make([]*recorder, clients)
	for c := range recs {
		recs[c] = &recorder{hdr: http.Header{}}
	}
	hashers := make([]hash.Hash64, clients)
	for c := range hashers {
		hashers[c] = fnv.New64a()
	}
	wall := closedLoop(len(ops), clients, func(c, i int) {
		rec, hh := recs[c], hashers[c]
		t0 := time.Now()
		rec.reset()
		t1 := time.Now()
		h.ServeHTTP(rec, reqs[i])
		t2 := time.Now()
		res.lat[i] = ms(t2.Sub(t1))
		res.status[i] = rec.code
		res.size[i] = rec.buf.Len()
		hh.Reset()
		hh.Write(rec.buf.Bytes())
		res.hash[i] = hh.Sum64()
		if tr != nil {
			t3 := time.Now()
			tr.rec(c, "serve", "client", i, t1, t2)
			tr.rec(c, "client", "", i, t0, t3)
		}
	})
	return res, wall
}

// callService runs one request's library call on svc: the Service method
// the handler would call, with the same options.
func callService(ctx context.Context, svc *anchor.Service, dim int, s reqSpec) (any, error) {
	opts := []anchor.QueryOption{anchor.QueryPrecision(s.bits)}
	if s.ann {
		opts = append(opts, anchor.QueryANN(true))
	}
	switch s.kind {
	case opVectors:
		return svc.Query(ctx, readAlgo, dim, s.words, anchor.QueryYear(s.year), anchor.QueryPrecision(s.bits))
	case opNeighbors:
		return svc.Neighbors(ctx, readAlgo, dim, s.words, append(opts, anchor.QueryYear(s.year))...)
	default:
		return svc.NeighborDelta(ctx, readAlgo, dim, s.words, opts...)
	}
}

// oracleHashes computes, for every pool entry the ops use, the hash of the
// body a window-0 library oracle produces: a separate Service over the
// same cache directory with micro-batching off, its report encoded the
// way the handler encodes it.
func oracleHashes(ctx context.Context, env *readEnv, p *plan, ops []int) (map[int]uint64, error) {
	osvc, err := anchor.NewService(anchor.WithConfig(env.cfg), anchor.WithCacheDir(env.dir), anchor.WithQueryWindow(0))
	if err != nil {
		return nil, err
	}
	var used []int
	seen := map[int]bool{}
	for _, pi := range ops {
		if !seen[pi] {
			seen[pi] = true
			used = append(used, pi)
		}
	}
	out := make([]uint64, len(used))
	errs := make([]error, len(used))
	closedLoop(len(used), readClients, func(_, i int) {
		rep, err := callService(ctx, osvc, p.dim, p.pool[used[i]])
		if err != nil {
			errs[i] = err
			return
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(rep); err != nil {
			errs[i] = err
			return
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		out[i] = h.Sum64()
	})
	m := make(map[int]uint64, len(used))
	for i, pi := range used {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle %s: %w", p.pool[pi].target, errs[i])
		}
		m[pi] = out[i]
	}
	return m, nil
}

// trafficDelta is the change in store and query counters over a phase.
type trafficDelta struct {
	loads, hits, batches, batched, annBuilds int64
	computes, diskHits, quarantines          int64
	annDiskHits, storeANNBuilds              int64
}

func traffic(svc *anchor.Service) trafficDelta {
	q, s := svc.QueryStats(), svc.StoreStats()
	return trafficDelta{
		loads: q.SnapshotLoads, hits: q.SnapshotHits, batches: q.Batches, batched: q.BatchedQueries,
		annBuilds: q.ANNBuilds, computes: s.Computes, diskHits: s.DiskHits, quarantines: s.Quarantines,
		annDiskHits: s.ANNDiskHits, storeANNBuilds: s.ANNBuilds,
	}
}

func (a trafficDelta) sub(b trafficDelta) trafficDelta {
	return trafficDelta{
		loads: a.loads - b.loads, hits: a.hits - b.hits, batches: a.batches - b.batches,
		batched: a.batched - b.batched, annBuilds: a.annBuilds - b.annBuilds,
		computes: a.computes - b.computes, diskHits: a.diskHits - b.diskHits,
		quarantines: a.quarantines - b.quarantines, annDiskHits: a.annDiskHits - b.annDiskHits,
		storeANNBuilds: a.storeANNBuilds - b.storeANNBuilds,
	}
}

// shapeCheck verifies the timed phase did exactly the work the workload
// is defined by; any drift is reported as a failure.
func shapeCheck(p *plan, d trafficDelta) []string {
	var fails []string
	want := func(name string, got, exp int64) {
		if got != exp {
			fails = append(fails, fmt.Sprintf("shape: %s = %d, want %d", name, got, exp))
		}
	}
	want("store computes", d.computes, 0)
	want("store quarantines", d.quarantines, 0)
	want("query ann builds", d.annBuilds, 0)
	want("store ann builds", d.storeANNBuilds, 0)
	if !p.churn {
		want("query loads", d.loads, 0)
		want("store disk hits", d.diskHits, 0)
		return fails
	}
	var cold, coldANN int64
	for _, pi := range p.ops {
		if c := p.pool[pi].cls; c > 0 {
			cold++
			if p.classes[c].ann {
				coldANN++
			}
		}
	}
	want("query loads", d.loads, cold)
	want("store disk hits", d.diskHits, cold)
	want("store ann disk hits", d.annDiskHits, coldANN)
	return fails
}

func runReadHot(ctx context.Context, o options) (*report, error)   { return runRead(ctx, o, false) }
func runReadChurn(ctx context.Context, o options) (*report, error) { return runRead(ctx, o, true) }

// runRead is one read-workload run: set-up (repeated for setup_s), warm-
// up, the untraced timed phase, the oracle and shape checks, and with
// --trace 1 the traced replays.
func runRead(ctx context.Context, o options, churn bool) (*report, error) {
	sc := readScaleFor(o.tiny)
	cfg := readConfig(sc)
	rate, block, mkPlan := sc.hotRate, blockSize(hotClasses()), planHot
	if churn {
		rate, block, mkPlan = sc.churnRate, 4*len(churnCycle()), planChurn
	}
	blocks := max(1, int(rate*float64(o.seconds))/block)
	if !o.tiny {
		// p99 needs at least ten samples beyond it.
		blocks = max(blocks, (1000+block-1)/block)
	}
	p := mkPlan(o.seed, sc, vocabulary(cfg), blocks)

	reps := setupReps
	if o.trace {
		reps = 1 // the traced run reports no set-up time
	}
	var setupS []float64
	var env *readEnv
	for r := 0; r < reps; r++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("cache-%d", r))
		t0 := time.Now()
		e, err := setupRead(ctx, p, cfg, dir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if r < reps-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		env = e
	}

	// read-churn keeps every processor: on one, a hot request that arrives
	// during a cold load waits out the load's time slice, so hot latencies
	// split into two modes and p50 falls on the edge between them.
	procs := hotProcs
	if churn {
		procs = runtime.NumCPU()
	}
	var (
		res    opResults
		wall   time.Duration
		cost   phaseCost
		rounds []phaseCost
		roundN []int
		p50s   []float64
		d      trafficDelta
		peakMB float64
	)
	withProcs(procs, func() {
		quiesce()
		before := traffic(env.svc)
		c0 := readCounters()
		for i, ops := range splitRounds(p.ops, block, timedRounds) {
			if i > 0 {
				runtime.GC()
			}
			r0 := readCounters()
			out, w := serveOps(env.h, p, ops, readClients, nil)
			rc := costBetween(r0, readCounters())
			rc.wall = w
			rounds, roundN = append(rounds, rc), append(roundN, len(ops))
			p50s = append(p50s, median(out.lat))
			res.extend(out)
			wall += w
		}
		c1 := readCounters()
		peakMB = peakRSSMB()
		d = traffic(env.svc).sub(before)
		cost = costBetween(c0, c1)
		cost.wall = wall
	})
	diskBytes, nBin, err := dirUsage(env.dir, ".bin")
	if err != nil {
		return nil, err
	}

	rep := &report{}
	rep.notes = append(rep.notes, fmt.Sprintf("workload %s seed %d: %d ops (%d warm-up), %d clients, %d distinct requests",
		o.workload, o.seed, len(p.ops), len(p.warm), readClients, len(p.pool)))
	rep.notes = append(rep.notes, cost.note("timed"))
	rep.notes = append(rep.notes, classLatencies(p, res))

	// Oracle: every 200 body must equal the window-0 library oracle's.
	want, err := oracleHashes(ctx, env, p, p.ops)
	if err != nil {
		return nil, err
	}
	failed := 0
	for i, pi := range p.ops {
		if res.status[i] != http.StatusOK || res.hash[i] != want[pi] {
			failed++
			if failed <= 5 {
				rep.notes = append(rep.notes, fmt.Sprintf("oracle mismatch: op %d %s status %d", i, p.pool[pi].target, res.status[i]))
			}
		}
	}
	shapeFails := shapeCheck(p, d)
	rep.notes = append(rep.notes, shapeFails...)
	rep.notes = append(rep.notes, fmt.Sprintf("shape: loads %d hits %d disk-hits %d computes %d batches %d (%d queries)",
		d.loads, d.hits, d.diskHits, d.computes, d.batches, d.batched))
	rep.res = result{Correct: failed == 0 && len(shapeFails) == 0, Attempted: len(p.ops), Failed: failed}

	n := float64(len(p.ops))
	if !o.trace {
		// Rates, p50 and per-op costs are medians over the rounds, so a
		// burst of host noise in one round does not move them. p99 pools
		// all rounds, which keeps at least ten samples beyond it.
		var rps, cpuOp, allocOp []float64
		for r, rc := range rounds {
			k := float64(roundN[r])
			rps = append(rps, k/rc.wall.Seconds())
			cpuOp = append(cpuOp, ms(rc.cpu)/k)
			allocOp = append(allocOp, float64(rc.allocBytes)/k/(1<<20))
		}
		rep.res.Metrics = map[string]metric{
			"setup_s":         {median(setupS), "s"},
			"throughput_rps":  {median(rps), "1/s"},
			"latency_p50_ms":  {median(p50s), "ms"},
			"latency_p99_ms":  {percentile(res.lat, 0.99), "ms"},
			"cpu_ms_per_op":   {median(cpuOp), "ms"},
			"alloc_mb_per_op": {median(allocOp), "MiB"},
			"peak_rss_mb":     {peakMB, "MiB"},
			"disk_mb":         {float64(diskBytes) / (1 << 20), "MiB"},
		}
		rep.notes = append(rep.notes,
			fmt.Sprintf("rounds: ops %v rps %.1f p50 %.3f", roundN, rps, p50s),
			fmt.Sprintf("setup_s reps: %v", setupS))
		return rep, nil
	}
	var layers map[string]metric
	var spans []span
	withProcs(procs, func() { layers, spans, err = traceRead(ctx, env, p, wall, res) })
	if err != nil {
		return nil, err
	}
	layers["query.batch_size_mean"] = metric{ratio(d.batched, d.batches), "count"}
	layers["query.loads_per_op"] = metric{float64(d.loads) / n, "count"}
	layers["query.hit_ratio"] = metric{ratio(d.hits, d.hits+d.loads), "frac"}
	layers["store.disk_hits_per_op"] = metric{float64(d.diskHits) / n, "count"}
	layers["store.disk_bytes_per_artifact"] = metric{float64(diskBytes) / float64(max(nBin, 1)), "B"}
	// GC inside the rounds, without the collections between them.
	var gcCount uint32
	var gcPause time.Duration
	for _, rc := range rounds {
		gcCount += rc.gcCount
		gcPause += rc.gcPause
	}
	layers["runtime.gc_count"] = metric{float64(gcCount), "count"}
	layers["runtime.gc_pause_ms"] = metric{ms(gcPause), "ms"}
	rep.res.Metrics = completeLayers(layers)
	rep.spans = spans
	return rep, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// classLatencies summarizes the timed phase per request class, so the
// positions of p50 and p99 relative to the class mix are visible.
func classLatencies(p *plan, res opResults) string {
	per := make([][]float64, len(p.classes))
	for i, pi := range p.ops {
		c := p.pool[pi].cls
		per[c] = append(per[c], res.lat[i])
	}
	var b strings.Builder
	b.WriteString("class p50 ms:")
	for c, xs := range per {
		if len(xs) > 0 {
			fmt.Fprintf(&b, " %s=%.3f(%d)", p.classes[c].name, median(xs), len(xs))
		}
	}
	return b.String()
}
