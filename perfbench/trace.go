package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"anchor"
	"anchor/internal/ann"
	"anchor/internal/compress"
	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/experiments"
	"anchor/internal/floats"
	"anchor/internal/matrix"
	"anchor/internal/query"
	"anchor/internal/store"
)

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"serve.self_us", "us"},
	{"serve.resp_kb", "KiB"},
	{"service.self_us", "us"},
	{"query.self_us", "us"},
	{"query.batch_size_mean", "count"},
	{"query.load_ms", "ms"},
	{"query.loads_per_op", "count"},
	{"query.hit_ratio", "frac"},
	{"matrix.f64_us_per_query", "us"},
	{"matrix.f32_us_per_query", "us"},
	{"matrix.lut8_us_per_query", "us"},
	{"matrix.lut1_us_per_query", "us"},
	{"matrix.lut_alloc_kb_per_query", "KiB"},
	{"matrix.bytes_per_query", "B"},
	{"ann.search_us", "us"},
	{"ann.sidecar_load_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.disk_hits_per_op", "count"},
	{"store.put_ms", "ms"},
	{"store.disk_bytes_per_artifact", "B"},
	{"corpus.generate_s", "s"},
	{"embtrain.cbow_s", "s"},
	{"embtrain.glove_s", "s"},
	{"embtrain.mc_s", "s"},
	{"cooc.count_ms", "ms"},
	{"embedding.align_ms", "ms"},
	{"compress.quantize_ms", "ms"},
	{"core.eigenspace-instability_ms", "ms"},
	{"core.1-knn_ms", "ms"},
	{"core.pip-loss_ms", "ms"},
	{"core.semantic-displacement_ms", "ms"},
	{"core.1-eigenspace-overlap_ms", "ms"},
	{"tasks.sst2_ms", "ms"},
	{"tasks.subj_ms", "ms"},
	{"tasks.conll2003_ms", "ms"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"unaccounted_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

// completeLayers returns exactly the per-layer metric set, 0 for the
// layers the workload did not exercise.
func completeLayers(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{m[l.name].Value, l.unit}
	}
	return out
}

// opTag carries an op's client and id into the benchmark's own query
// source, so store and sidecar calls made on the op's behalf are recorded
// as its child spans.
type opTag struct{ client, req int }

type opTagKey struct{}

// traceRead measures the layers behind the timed phase. First the timed
// ops are replayed through the handler with span recording on; its wall
// time against the untraced phase's is the tracing overhead. Then one
// layered replay, with the timed phase's concurrency, issues every op once
// per layer boundary, back to back: the serve handler, the Service method
// (on a second Service over the same cache directory), a query.Engine
// method on the benchmark's own engine over the same store-backed source,
// and the kernel or ANN call at the same shapes. Issuing the layers of one
// op together keeps drift between layers out of the differences. Self time
// is a span minus the same op's span one layer down.
func traceRead(ctx context.Context, env *readEnv, p *plan, wall0 time.Duration, res0 opResults) (map[string]metric, []span, error) {
	n := len(p.ops)
	out := map[string]metric{}

	tr1 := newTracer(readClients)
	quiesce()
	res1, wall1 := serveOps(env.h, p, p.ops, readClients, tr1)
	for i := range p.ops {
		if res1.status[i] != http.StatusOK || res1.hash[i] != res0.hash[i] {
			return nil, nil, fmt.Errorf("traced replay: op %d answered differently", i)
		}
	}
	out["trace_overhead_frac"] = metric{wall1.Seconds()/wall0.Seconds() - 1, "frac"}

	svc2, err := anchor.NewService(anchor.WithConfig(env.cfg), anchor.WithCacheDir(env.dir),
		anchor.WithQueryBudget(env.budget), anchor.WithCacheCapacity(env.storeCap))
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(readClients)
	qe, err := newQueryReplay(env, p, tr)
	if err != nil {
		return nil, nil, err
	}
	lf, err := newLeafReplay(env, p, qe.runner)
	if err != nil {
		return nil, nil, err
	}
	// Warm the second Service and the engine with the warm-up ops, so each
	// layer sees the same cache state when the layered replay starts.
	errs := make([]error, len(p.warm))
	closedLoop(len(p.warm), readClients, func(_, i int) {
		_, errs[i] = callService(ctx, svc2, p.dim, p.pool[p.warm[i]])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	if err := qe.run(ctx, p.warm); err != nil {
		return nil, nil, err
	}

	reqs := buildRequests(p, p.ops)
	recs := make([]*recorder, readClients)
	for c := range recs {
		recs[c] = &recorder{hdr: http.Header{}}
	}
	errs = make([]error, n)
	quiesce()
	closedLoop(n, readClients, func(c, i int) {
		s := p.pool[p.ops[i]]
		t0 := time.Now()
		recs[c].reset()
		t1 := time.Now()
		env.h.ServeHTTP(recs[c], reqs[i])
		t2 := time.Now()
		if recs[c].code != http.StatusOK {
			errs[i] = fmt.Errorf("layered replay: op %d status %d", i, recs[c].code)
		}
		t3 := time.Now()
		tr.rec(c, "serve", "client", i, t1, t2)
		tr.rec(c, "client", "", i, t0, t3)

		t0 = time.Now()
		if _, err := callService(ctx, svc2, p.dim, s); err != nil {
			errs[i] = err
		}
		tr.rec(c, "service", "serve", i, t0, time.Now())

		octx := context.WithValue(ctx, opTagKey{}, opTag{c, i})
		t0 = time.Now()
		if err := qe.call(octx, c, i, s, true); err != nil {
			errs[i] = err
		}
		tr.rec(c, "query", "service", i, t0, time.Now())

		lf.run(tr, c, i, s)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}

	spans := tr.all()
	root := byReq(spans, "client", n)
	serveD := byReq(spans, "serve", n)
	svcD := byReq(spans, "service", n)
	queryD := byReq(spans, "query", n)
	storeD := byReq(spans, "store.load", n)
	sideD := byReq(spans, "ann.sidecar", n)
	leafD := make([]time.Duration, n)
	for _, s := range spans {
		if s.Parent == "query" && (s.Name == "ann.search" || len(s.Name) > 7 && s.Name[:7] == "matrix.") {
			leafD[s.Req] += s.dur()
		}
	}
	// Unaccounted time is the harness time outside the serve span plus the
	// time by which a lower layer's replay of an op outlasted its parent's
	// (a negative self time, which the layered decomposition cannot place).
	var serveSelf, svcSelf, querySelf, rootSum, unplaced time.Duration
	for i := 0; i < n; i++ {
		a := serveD[i] - svcD[i]
		b := svcD[i] - queryD[i]
		c := queryD[i] - storeD[i] - sideD[i] - leafD[i]
		serveSelf += a
		svcSelf += b
		querySelf += c
		rootSum += root[i]
		unplaced += root[i] - serveD[i] - min(a, 0) - min(b, 0) - min(c, 0)
	}
	perOp := func(d time.Duration) float64 { return us(d) / float64(n) }
	out["serve.self_us"] = metric{perOp(serveSelf), "us"}
	out["service.self_us"] = metric{perOp(svcSelf), "us"}
	out["query.self_us"] = metric{perOp(querySelf), "us"}
	out["unaccounted_frac"] = metric{unplaced.Seconds() / rootSum.Seconds(), "frac"}
	var sizes []float64
	for _, s := range res0.size {
		sizes = append(sizes, float64(s)/1024)
	}
	out["serve.resp_kb"] = metric{mean(sizes), "KiB"}
	avgSpan := func(name string) time.Duration {
		var sum time.Duration
		cnt := 0
		for _, s := range spans {
			if s.Name == name {
				sum += s.dur()
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / time.Duration(cnt)
	}
	out["query.load_ms"] = metric{ms(avgSpan("query.load")), "ms"}
	out["store.load_ms"] = metric{ms(avgSpan("store.load")), "ms"}
	out["ann.sidecar_load_ms"] = metric{ms(avgSpan("ann.sidecar")), "ms"}
	out["ann.search_us"] = metric{us(avgSpan("ann.search")), "us"}
	for _, m := range []struct{ span, name string }{
		{"matrix.f64", "matrix.f64_us_per_query"}, {"matrix.f32", "matrix.f32_us_per_query"},
		{"matrix.lut8", "matrix.lut8_us_per_query"}, {"matrix.lut1", "matrix.lut1_us_per_query"},
	} {
		out[m.name] = metric{us(lf.perQuery(spans, m.span)), "us"}
	}
	out["matrix.lut_alloc_kb_per_query"] = metric{lf.lutAllocKB(), "KiB"}
	out["matrix.bytes_per_query"] = metric{lf.bytesPerQuery(p), "B"}

	if err := leafCalls(ctx, env, p, qe.runner, out); err != nil {
		return nil, nil, err
	}
	return out, append(tr1.all(), spans...), nil
}

// queryReplay drives the benchmark's own query.Engine, configured as the
// Service configures its engine, over a store opened on the same cache
// directory.
type queryReplay struct {
	p      *plan
	eng    *query.Engine
	runner *experiments.Runner
	tr     *tracer
	k      int
}

func newQueryReplay(env *readEnv, p *plan, tr *tracer) (*queryReplay, error) {
	st, err := store.Open(env.dir, env.storeCap)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewRunnerWithStore(env.cfg, st)
	tagged := func(ctx context.Context, name string, t0 time.Time) {
		if tag, ok := ctx.Value(opTagKey{}).(opTag); ok {
			tr.rec(tag.client, name, "query", tag.req, t0, time.Now())
		}
	}
	src := func(ctx context.Context, ref query.Ref) (*embedding.Embedding, error) {
		t0 := time.Now()
		defer tagged(ctx, "store.load", t0)
		bits := ref.Bits
		if bits == 0 {
			bits = 32
		}
		return runner.QuantizedSnapshotCtx(ctx, ref.Algo, ref.Year, ref.Dim, bits, ref.Seed)
	}
	annSrc := func(ctx context.Context, ref query.Ref, cfg ann.Config, rows, dim int, build func() (*ann.Index, error)) (*ann.Index, error) {
		k, err := runner.SnapshotKey(ref.Algo, ref.Year, ref.Dim, ref.Bits, ref.Seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		defer tagged(ctx, "ann.sidecar", t0)
		return st.GetANN(k, cfg, rows, dim, build)
	}
	eng := query.New(src,
		query.WithBudget(env.budget),
		query.WithWindow(200*time.Microsecond),
		query.WithWorkers(env.cfg.Workers),
		query.WithANNSource(annSrc))
	return &queryReplay{p: p, eng: eng, runner: runner, tr: tr, k: env.cfg.K}, nil
}

// run replays ops on the engine untraced (the warm-up).
func (q *queryReplay) run(ctx context.Context, ops []int) error {
	errs := make([]error, len(ops))
	closedLoop(len(ops), readClients, func(c, i int) {
		errs[i] = q.call(ctx, c, i, q.p.pool[ops[i]], false)
	})
	return errors.Join(errs...)
}

// call issues one op's engine method; a traced cold op of read-churn
// first records its snapshot load as a span of its own.
func (q *queryReplay) call(ctx context.Context, c, i int, s reqSpec, traced bool) error {
	ref := snapKey{s.year, s.bits}.ref(q.p.dim)
	mode := query.Mode{ANN: s.ann}
	if traced && q.p.churn && s.cls > 0 {
		t0 := time.Now()
		if _, err := q.eng.Words(ctx, ref); err != nil {
			return err
		}
		q.tr.rec(c, "query.load", "query", i, t0, time.Now())
	}
	var err error
	switch {
	case s.kind == opVectors:
		for _, w := range s.words {
			if _, _, err = q.eng.Vector(ctx, ref, w); err != nil {
				return err
			}
		}
	case s.kind == opDelta:
		refB := snapKey{2018, s.bits}.ref(q.p.dim)
		_, err = q.eng.NeighborDeltaMode(ctx, ref, refB, s.words, q.k, mode)
	case len(s.words) == 1:
		_, err = q.eng.NeighborsMode(ctx, ref, s.words[0], q.k, mode)
	default:
		_, err = q.eng.NeighborsBatchMode(ctx, ref, s.words, q.k, mode)
	}
	return err
}

// leafOperand is one snapshot in the representation the engine scores.
type leafOperand struct {
	emb   *embedding.Embedding
	norm  *matrix.Dense   // float64 mode
	raw32 *matrix.Dense32 // float32 mode
	codes *matrix.Codes   // packed-code mode
	inv   []float64       // inverse row norms (compact modes)
	ix    *ann.Index
	span  string
	bytes int64 // resident rows the kernel streams per query block
}

// leafReplay issues the kernel and ANN calls of each op directly.
type leafReplay struct {
	ops     map[snapKey]*leafOperand
	index   map[string]int
	workers int
	k       int
	dim     int
	bufs    [readClients]struct{ qb, sb *matrix.Dense }
}

func newLeafReplay(env *readEnv, p *plan, runner *experiments.Runner) (*leafReplay, error) {
	snaps, annSnaps := p.snapshots()
	st, err := store.Open(env.dir, 0)
	if err != nil {
		return nil, err
	}
	lf := &leafReplay{ops: map[snapKey]*leafOperand{}, workers: env.cfg.Workers, k: env.cfg.K, dim: p.dim}
	for _, s := range snaps {
		e, err := runner.QuantizedSnapshotCtx(context.Background(), readAlgo, s.year, p.dim, s.bits, 1)
		if err != nil {
			return nil, err
		}
		op := &leafOperand{emb: e}
		rows, d := e.Rows(), e.Dim()
		switch b := e.Meta.Precision; {
		case b >= 1 && b <= 8:
			op.codes, err = matrix.NewCodesFromDense(e.Vectors, compress.Levels(e.Meta.Clip, b), b)
			if err != nil {
				return nil, err
			}
			op.inv = leafInvNorms(rows, d, op.codes.DequantizeRow)
			op.span, op.bytes = fmt.Sprintf("matrix.lut%d", b), int64(len(op.codes.Data))
			if b != 1 && b != 8 {
				op.span = "matrix.lut"
			}
		case b > 8 && b < 32:
			op.raw32 = matrix.NewDense32From(e.Vectors)
			op.inv = leafInvNorms(rows, d, op.raw32.WidenRow)
			op.span, op.bytes = "matrix.f32", int64(rows)*int64(d)*4
		default:
			op.norm = core.NormalizedRows(e, env.cfg.Workers)
			op.span, op.bytes = "matrix.f64", int64(rows)*int64(d)*8
		}
		if annSnaps[s] {
			k, err := runner.SnapshotKey(readAlgo, s.year, p.dim, s.bits, 1)
			if err != nil {
				return nil, err
			}
			op.ix, err = st.GetANN(k, ann.Config{Seed: 1, Workers: env.cfg.Workers}, rows, d, func() (*ann.Index, error) {
				return nil, fmt.Errorf("ann sidecar for %v missing from the set-up cache", s)
			})
			if err != nil {
				return nil, err
			}
		}
		lf.ops[s] = op
		if lf.index == nil {
			lf.index = make(map[string]int, len(e.Words))
			for id, w := range e.Words {
				lf.index[w] = id
			}
		}
	}
	for c := range lf.bufs {
		lf.bufs[c].qb = matrix.NewDense(8, p.dim)
		lf.bufs[c].sb = matrix.NewDense(8, len(lf.index))
	}
	return lf, nil
}

func leafInvNorms(rows, cols int, fill func(i int, dst []float64)) []float64 {
	inv := make([]float64, rows)
	row := make([]float64, cols)
	for i := range inv {
		fill(i, row)
		if n := floats.Norm(row); n != 0 {
			inv[i] = 1 / n
		}
	}
	return inv
}

// run issues op i's leaf calls, one span each.
func (lf *leafReplay) run(tr *tracer, c, i int, s reqSpec) {
	if s.kind == opVectors {
		return
	}
	keys := []snapKey{{s.year, s.bits}}
	if s.kind == opDelta {
		keys = []snapKey{{2017, s.bits}, {2018, s.bits}}
	}
	for _, key := range keys {
		op := lf.ops[key]
		if s.ann {
			for _, w := range s.words {
				lf.search(tr, c, i, op, lf.index[w])
			}
			continue
		}
		lf.kernel(tr, c, i, op, s.words)
	}
}

// kernel scores the op's query rows against the snapshot, as one block.
func (lf *leafReplay) kernel(tr *tracer, c, i int, op *leafOperand, words []string) {
	q, n := len(words), len(lf.index)
	sc := &lf.bufs[c]
	qb := matrix.NewDenseData(q, lf.dim, sc.qb.Data[:q*lf.dim])
	sb := matrix.NewDenseData(q, n, sc.sb.Data[:q*n])
	var t0 time.Time
	switch {
	case op.codes != nil:
		for r, w := range words {
			op.codes.DequantizeRow(lf.index[w], qb.Row(r))
		}
		t0 = time.Now()
		matrix.MulABTIntoLUT(sb, qb, op.codes, lf.workers)
	case op.raw32 != nil:
		qb32 := matrix.NewDense32(q, lf.dim)
		for r, w := range words {
			copy(qb32.Row(r), op.raw32.Row(lf.index[w]))
		}
		t0 = time.Now()
		matrix.MulABTInto32(sb, qb32, op.raw32, lf.workers)
	default:
		for r, w := range words {
			copy(qb.Row(r), op.norm.Row(lf.index[w]))
		}
		t0 = time.Now()
		matrix.MulABTInto(sb, qb, op.norm, lf.workers)
	}
	tr.recRows(c, op.span, "query", i, q, t0, time.Now())
}

// search runs one IVF search with the exact path's per-candidate
// similarity.
func (lf *leafReplay) search(tr *tracer, c, i int, op *leafOperand, id int) {
	var q []float64
	var sim func(int32) float64
	if op.norm != nil {
		q = op.norm.Row(id)
		sim = func(j int32) float64 { return floats.Dot(q, op.norm.Row(int(j))) }
	} else {
		qraw := make([]float64, lf.dim)
		fill := op.codes.DequantizeRow
		if op.raw32 != nil {
			fill = op.raw32.WidenRow
		}
		fill(id, qraw)
		q = make([]float64, lf.dim)
		for k, v := range qraw {
			q[k] = v * op.inv[id]
		}
		crow := make([]float64, lf.dim)
		sim = func(j int32) float64 {
			fill(int(j), crow)
			return (floats.Dot(qraw, crow) * op.inv[id]) * op.inv[j]
		}
	}
	out := make([]int32, lf.k)
	t0 := time.Now()
	ann.NewSearcher(op.ix).Search(q, lf.k, 0, id, sim, out)
	tr.rec(c, "ann.search", "query", i, t0, time.Now())
}

// perQuery is the mean span time per query row of one kernel span name.
func (lf *leafReplay) perQuery(spans []span, name string) time.Duration {
	var sum time.Duration
	rows := 0
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			rows += s.Rows
		}
	}
	if rows == 0 {
		return 0
	}
	return sum / time.Duration(rows)
}

// lutAllocKB measures the heap the LUT kernel allocates per one-row call.
func (lf *leafReplay) lutAllocKB() float64 {
	var op *leafOperand
	for _, o := range lf.ops {
		if o.codes != nil && (op == nil || o.codes.Bits > op.codes.Bits) {
			op = o
		}
	}
	if op == nil {
		return 0
	}
	qb := matrix.NewDense(1, lf.dim)
	op.codes.DequantizeRow(0, qb.Row(0))
	sb := matrix.NewDense(1, len(lf.index))
	const calls = 32
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for j := 0; j < calls; j++ {
		matrix.MulABTIntoLUT(sb, qb, op.codes, lf.workers)
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / calls / 1024
}

// bytesPerQuery is computed from representation sizes, not measured: the
// resident row bytes each exact neighbor block streams, per query row, as
// issued (no credit for micro-batching).
func (lf *leafReplay) bytesPerQuery(p *plan) float64 {
	var bytes, rows int64
	for _, pi := range p.ops {
		s := p.pool[pi]
		if s.kind == opVectors || s.ann {
			continue
		}
		snaps := int64(1)
		if s.kind == opDelta {
			snaps = 2
		}
		bytes += snaps * lf.ops[snapKey{s.year, s.bits}].bytes
		rows += snaps * int64(len(s.words))
	}
	if rows == 0 {
		return 0
	}
	return float64(bytes) / float64(rows)
}

// leafCalls times the single library calls behind set-up: corpus
// generation, one training, quantization and one store put.
func leafCalls(ctx context.Context, env *readEnv, p *plan, runner *experiments.Runner, out map[string]metric) error {
	t0 := time.Now()
	c17 := corpus.Generate(env.cfg.Corpus, corpus.Wiki17)
	corpus.Generate(env.cfg.Corpus, corpus.Wiki18)
	out["corpus.generate_s"] = metric{time.Since(t0).Seconds(), "s"}

	tr, err := embtrain.Lookup(readAlgo, env.cfg.Workers)
	if err != nil {
		return err
	}
	t0 = time.Now()
	tr.Train(c17, p.dim, 1)
	out["embtrain."+readAlgo+"_s"] = metric{time.Since(t0).Seconds(), "s"}

	e17, err := runner.QuantizedSnapshotCtx(ctx, readAlgo, 2017, p.dim, 32, 1)
	if err != nil {
		return err
	}
	snaps, _ := p.snapshots()
	var qt []float64
	for _, s := range snaps {
		if s.year != 2017 || s.bits >= 32 {
			continue
		}
		t0 = time.Now()
		clip := compress.OptimalClipWorkers(e17.Vectors.Data, s.bits, env.cfg.Workers)
		compress.QuantizeWorkers(e17, s.bits, clip, env.cfg.Workers)
		qt = append(qt, ms(time.Since(t0)))
	}
	out["compress.quantize_ms"] = metric{mean(qt), "ms"}

	st, err := store.Open(filepath.Join(filepath.Dir(env.dir), "put"), 0)
	if err != nil {
		return err
	}
	var put []float64
	for seed := int64(1); seed <= 3; seed++ {
		k := store.Key{Algo: readAlgo, Corpus: "wiki17", Dim: p.dim, Seed: seed, Bits: 32, Scope: "put"}
		t0 = time.Now()
		if _, err := st.Get(k, true, func() (*embedding.Embedding, error) { return e17, nil }); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
	}
	out["store.put_ms"] = metric{mean(put), "ms"}
	return nil
}
