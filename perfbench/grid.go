package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"anchor"
	"anchor/internal/compress"
	"anchor/internal/cooc"
	"anchor/internal/core"
	"anchor/internal/corpus"
	"anchor/internal/embedding"
	"anchor/internal/embtrain"
	"anchor/internal/experiments"
	"anchor/internal/parallel"
	"anchor/internal/store"
	"anchor/internal/tasks"
)

// gridTasks are the two sentiment tasks every cell evaluates; cells in the
// NER grid also evaluate conll2003.
var gridTasks = []string{"sst2", "subj"}

// gridScale sizes the grid-cell workload.
type gridScale struct {
	cfg      experiments.Config
	dims     []int
	precs    []int
	algoRate float64 // algorithms (pair plus cells) per second of --seconds
}

// gridScaleFor lists the cells of one dimension at the NER grid's
// precisions. Each algorithm's aligned pair is trained by an explicit
// Service.Pair call before its cells, so every cell is a warm-pair
// evaluation of the same work (all measures, both sentiment tasks and
// conll2003), and p50 is the middle of one group of cell times, not the
// edge between groups.
func gridScaleFor(tiny bool) gridScale {
	if tiny {
		cfg := experiments.SmallConfig()
		cfg.Corpus.VocabSize, cfg.Corpus.NumDocs = 200, 60
		cfg.NERDims, cfg.NERPrecisions = []int{4}, []int{1, 32}
		return gridScale{cfg: cfg, dims: []int{4}, precs: []int{1, 32}, algoRate: 1}
	}
	cfg := experiments.BenchConfig()
	return gridScale{cfg: cfg, dims: []int{32}, precs: cfg.NERPrecisions, algoRate: 1.0 / 3}
}

// cell is one sweep cell of the workload's list.
type cell struct {
	algo      string
	dim, bits int
	ner       bool
}

// gridConfig is the workload's experiment configuration: BenchConfig with
// its ladders cut to the listed dims and precisions and one training seed
// (EIS anchors at the largest listed dim, as the sweep does).
func gridConfig(gs gridScale, seed int64) experiments.Config {
	cfg := gs.cfg
	cfg.Dims = append([]int(nil), gs.dims...)
	cfg.Precisions = append([]int(nil), gs.precs...)
	cfg.Seeds = []int64{seed}
	return cfg
}

// gridCells is the fixed cell list: for the first n algorithms, dims x
// precisions in sweep order. The workload seed does not change it; it
// sets the training seed, so every seed does the same work on different
// numbers.
func gridCells(gs gridScale, n int) []cell {
	var out []cell
	for _, algo := range gs.cfg.Algorithms[:min(n, len(gs.cfg.Algorithms))] {
		for _, d := range gs.dims {
			for _, b := range gs.precs {
				out = append(out, cell{algo: algo, dim: d, bits: b,
					ner: gs.cfg.NEREnabled && contains(gs.cfg.NERDims, d) && contains(gs.cfg.NERPrecisions, b)})
			}
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// trainingSeed maps the workload seed onto a training seed.
func trainingSeed(seed int64) int64 {
	s := seed % 1000
	if s < 0 {
		s = -s
	}
	return 1 + s
}

// cellReport is one cell's answers: every measure value, then the
// disagreement and accuracy of every task, in a fixed order.
type cellReport struct {
	values []float64
	labels []string
}

func (r cellReport) add(label string, v float64) cellReport {
	r.labels = append(r.labels, label)
	r.values = append(r.values, v)
	return r
}

// equal reports bitwise equality.
func (r cellReport) equal(o cellReport) bool {
	if len(r.values) != len(o.values) {
		return false
	}
	for i := range r.values {
		if r.labels[i] != o.labels[i] || math.Float64bits(r.values[i]) != math.Float64bits(o.values[i]) {
			return false
		}
	}
	return true
}

func cellTasks(c cell) []string {
	if c.ner {
		return append(append([]string(nil), gridTasks...), "conll2003")
	}
	return gridTasks
}

// serviceCell evaluates one cell through the Service, as a client of the
// library would: MeasureCell, then Stability for each task.
func serviceCell(ctx context.Context, svc *anchor.Service, c cell, seed int64) (cellReport, error) {
	var r cellReport
	mr, err := svc.MeasureCell(ctx, c.algo, c.dim, c.bits, seed)
	if err != nil {
		return r, err
	}
	for _, name := range core.MeasureNames() {
		r = r.add(name, mr.Values[name])
	}
	for _, task := range cellTasks(c) {
		sr, err := svc.Stability(ctx, c.algo, task, c.dim, c.bits, seed)
		if err != nil {
			return r, err
		}
		r = r.add(task+".di", sr.Disagreement).add(task+".acc", sr.Accuracy)
	}
	return r, nil
}

// setupGrid is the grid-cell set-up: a Service on a fresh cache directory
// generating the corpora and task datasets and running one warm-up cell
// at a dimension outside the timed list.
func setupGrid(ctx context.Context, cfg experiments.Config, dir string, seed int64) error {
	wcfg := cfg
	wcfg.Dims = []int{2}
	svc, err := anchor.NewService(anchor.WithConfig(wcfg), anchor.WithCacheDir(dir))
	if err != nil {
		return err
	}
	_, err = serviceCell(ctx, svc, cell{algo: cfg.Algorithms[len(cfg.Algorithms)-1], dim: 2, bits: 32}, seed)
	return err
}

func runGrid(ctx context.Context, o options) (*report, error) {
	gs := gridScaleFor(o.tiny)
	seed := trainingSeed(o.seed)
	cfg := gridConfig(gs, seed)
	cells := gridCells(gs, max(1, int(math.Round(gs.algoRate*float64(o.seconds)))))

	// grid-cell's set-up takes under a second, so it repeats more often
	// than the read workloads' to steady the median.
	reps := 2*setupReps - 1
	if o.trace {
		reps = 1
	}
	var setupS []float64
	for r := 0; r < reps; r++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		if err := setupGrid(ctx, cfg, dir, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	// Timed phase: a fresh Service on a fresh cache directory evaluates
	// the cell list. The shared SVD memo starts empty, as in a new process.
	// Like every grid-cell phase it runs on every processor, so the
	// trainers' workers, the concurrent task-model fits and the sharded
	// measures take their parallel paths.
	dir := filepath.Join(o.dir, "cache")
	svc, err := anchor.NewService(anchor.WithConfig(cfg), anchor.WithCacheDir(dir))
	if err != nil {
		return nil, err
	}
	core.ResetSVDCache()
	st0 := svc.StoreStats()
	lat := make([]float64, len(cells))
	got := make([]cellReport, len(cells))
	var pairMs []float64
	var ops opTimer
	quiesce()
	c0 := readCounters()
	trained := map[string]bool{}
	for i, c := range cells {
		if k := fmt.Sprintf("%s/%d", c.algo, c.dim); !trained[k] {
			// The pair's training is its own operation, so every cell
			// below is a warm-pair evaluation.
			trained[k] = true
			d, err := ops.run(func() error {
				_, _, err := svc.Pair(ctx, c.algo, c.dim, seed)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("pair %s/%d: %w", c.algo, c.dim, err)
			}
			pairMs = append(pairMs, ms(d))
		}
		d, err := ops.run(func() (err error) {
			got[i], err = serviceCell(ctx, svc, c, seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("cell %v: %w", c, err)
		}
		lat[i] = ms(d)
	}
	cost := costBetween(c0, readCounters())
	peakMB := peakRSSMB()
	st1 := svc.StoreStats()
	diskBytes, nBin, err := dirUsage(dir, ".bin")
	if err != nil {
		return nil, err
	}

	rep := &report{}
	n := float64(len(cells))
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload grid-cell seed %d: %d cells (training seed %d), tasks %v (+conll2003 on NER cells)", o.seed, len(cells), seed, gridTasks),
		cost.note("timed"),
		fmt.Sprintf("cells_per_min %.4f", 60*n/ops.total.Seconds()),
		fmt.Sprintf("pair ms: %.0f; cell ms:%s", pairMs, cellLatencies(cells, lat)))

	// Oracle: a composition of the same public calls must reproduce every
	// Service report bitwise. Each (algo, dim) pair is trained before the
	// cell that first needs it, outside the cell's span, as the Service
	// phase trains it by its own Pair operation.
	var tr *tracer
	if o.trace {
		tr = newTracer(1)
	}
	want := make([]cellReport, len(cells))
	core.ResetSVDCache()
	quiesce()
	cw0 := time.Now()
	comp, err := newComposer(cfg, seed, filepath.Join(o.dir, "compose"), tr)
	if err != nil {
		return nil, err
	}
	maxDim := cfg.Dims[len(cfg.Dims)-1]
	for i, c := range cells {
		for _, d := range []int{c.dim, maxDim} {
			if _, err := comp.pair(i, c.algo, d); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		if want[i], _, err = comp.cell(i, c); err != nil {
			return nil, err
		}
	}
	compWall := time.Since(cw0)
	failed := 0
	for i := range cells {
		if !got[i].equal(want[i]) {
			failed++
			rep.notes = append(rep.notes, fmt.Sprintf("oracle mismatch: cell %v: service %v composition %v", cells[i], got[i].values, want[i].values))
		}
	}
	rep.digest = digest(got)
	rep.notes = append(rep.notes, fmt.Sprintf("report digest %016x", rep.digest))

	// Shape: the Service computed exactly the artifacts the list needs,
	// and the composition trained exactly twice per (algo, dim) pair.
	var shapeFails []string
	pairs, qpairs := expectedArtifacts(cells, cfg)
	rep.computes = st1.Computes - st0.Computes
	if rep.computes != int64(2*pairs+qpairs) {
		shapeFails = append(shapeFails, fmt.Sprintf("shape: store computes = %d, want %d", rep.computes, 2*pairs+qpairs))
	}
	if comp.trainings != 2*pairs {
		shapeFails = append(shapeFails, fmt.Sprintf("shape: trainings = %d, want %d", comp.trainings, 2*pairs))
	}
	if d := st1.Quarantines - st0.Quarantines; d != 0 {
		shapeFails = append(shapeFails, fmt.Sprintf("shape: store quarantines = %d, want 0", d))
	}
	rep.notes = append(rep.notes, shapeFails...)
	rep.notes = append(rep.notes, fmt.Sprintf("shape: %d pairs, %d quantized pairs, %d trainings, %d store computes",
		pairs, qpairs, comp.trainings, rep.computes))
	rep.res = result{Correct: failed == 0 && len(shapeFails) == 0, Attempted: len(cells), Failed: failed}

	if !o.trace {
		rep.res.Metrics = map[string]metric{
			"setup_s":         {median(setupS), "s"},
			"throughput_rps":  {n / ops.total.Seconds(), "1/s"},
			"latency_p50_ms":  {median(lat), "ms"},
			"latency_p99_ms":  {percentile(lat, 0.99), "ms"},
			"cpu_ms_per_op":   {ms(cost.cpu) / n, "ms"},
			"alloc_mb_per_op": {float64(cost.allocBytes) / n / (1 << 20), "MiB"},
			"peak_rss_mb":     {peakMB, "MiB"},
			"disk_mb":         {float64(diskBytes) / (1 << 20), "MiB"},
		}
		rep.notes = append(rep.notes, fmt.Sprintf("setup_s reps: %v", setupS))
		return rep, nil
	}

	layers := comp.layers()
	var coocT []float64
	for _, w := range []cooc.Weighting{cooc.InverseDistance, cooc.Uniform} {
		t0 := time.Now()
		cooc.CountWorkers(comp.c17, 5, w, cfg.Workers)
		coocT = append(coocT, ms(time.Since(t0)))
	}
	warm, err := warmReplay(ctx, svc, comp, cells, seed, want)
	if err != nil {
		return nil, err
	}
	layers["cooc.count_ms"] = metric{mean(coocT), "ms"}
	// Per cell: Service minus untraced composition, and traced over
	// untraced composition; the medians over cells resist a noisy cell.
	var self, over []float64
	for _, w := range warm {
		self = append(self, us(w[0]-w[1]))
		over = append(over, w[2].Seconds()/w[1].Seconds()-1)
	}
	layers["service.self_us"] = metric{median(self), "us"}
	layers["store.disk_hits_per_op"] = metric{float64(st1.DiskHits-st0.DiskHits) / n, "count"}
	layers["store.disk_bytes_per_artifact"] = metric{float64(diskBytes) / float64(max(nBin, 1)), "B"}
	layers["runtime.gc_count"] = metric{float64(ops.gcCount), "count"}
	layers["runtime.gc_pause_ms"] = metric{ms(ops.gcPause), "ms"}
	var covered time.Duration
	for _, s := range tr.all() {
		if s.Parent != "" || s.Name == "corpus.generate" {
			covered += s.dur()
		}
	}
	layers["unaccounted_frac"] = metric{1 - covered.Seconds()/compWall.Seconds(), "frac"}
	layers["trace_overhead_frac"] = metric{median(over), "frac"}
	rep.notes = append(rep.notes, fmt.Sprintf("warm replay per cell: service-composition us %.0f; traced/untraced-1 %.4f", self, over))
	rep.res.Metrics = completeLayers(layers)
	rep.spans = tr.all()
	return rep, nil
}

// opTimer times operations that each start from a collected heap, so
// where GC cycles land does not depend on the operations before. The
// collection runs outside the timer and is not counted; the GC cycles and
// pauses inside the operations are.
type opTimer struct {
	total   time.Duration
	gcCount uint32
	gcPause time.Duration
}

func (t *opTimer) run(fn func() error) (time.Duration, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	t.total += d
	t.gcCount += m1.NumGC - m0.NumGC
	t.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return d, err
}

// expectedArtifacts counts the (algo, dim) pairs the list trains,
// including each algorithm's EIS anchor pair at the largest dim, and the
// quantized pairs it derives.
func expectedArtifacts(cells []cell, cfg experiments.Config) (pairs, qpairs int) {
	seen := map[string]bool{}
	maxDim := cfg.Dims[len(cfg.Dims)-1]
	for _, c := range cells {
		for _, k := range []string{fmt.Sprintf("%s/%d", c.algo, c.dim), fmt.Sprintf("%s/%d", c.algo, maxDim)} {
			if !seen[k] {
				seen[k] = true
				pairs++
			}
		}
		if k := fmt.Sprintf("%s/%d/%d", c.algo, c.dim, c.bits); c.bits != 32 && !seen[k] {
			seen[k] = true
			qpairs++
		}
	}
	return pairs, qpairs
}

func digest(rs []cellReport) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		for i, v := range r.values {
			fmt.Fprintf(h, "%s=%x;", r.labels[i], math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// composer rebuilds cells from the same public calls the experiment
// runner makes. With a tracer it times each call as a span under its pair
// or cell.
type composer struct {
	cfg       experiments.Config
	seed      int64
	st        *store.Store
	scope     string
	c17, c18  *corpus.Corpus
	ids       []int
	pairs     map[string][2]*embedding.Embedding
	quant     map[string][2]*embedding.Embedding
	evals     map[string]tasks.Evaluator
	tr        *tracer // nil: untraced
	trainings int
}

func newComposer(cfg experiments.Config, seed int64, dir string, tr *tracer) (*composer, error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	c := &composer{
		cfg: cfg, seed: seed, st: st, tr: tr,
		pairs: map[string][2]*embedding.Embedding{}, quant: map[string][2]*embedding.Embedding{},
		evals: map[string]tasks.Evaluator{},
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", cfg.Corpus)
	c.scope = fmt.Sprintf("%016x", h.Sum64())
	c.timed("corpus.generate", "", -1, func() {
		c.c17 = corpus.Generate(cfg.Corpus, corpus.Wiki17)
		c.c18 = corpus.Generate(cfg.Corpus, corpus.Wiki18)
	})
	c.ids = c.c17.TopWords(cfg.TopWords)
	return c, nil
}

// timed runs fn, recording it as a span named name under parent for
// operation req when the composer is traced.
func (c *composer) timed(name, parent string, req int, fn func()) {
	if c.tr == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	c.tr.rec(0, name, parent, req, t0, time.Now())
}

// put persists one artifact through a store Get miss.
func (c *composer) put(parent string, req int, corpusTag string, dim, bits int, e *embedding.Embedding) error {
	var err error
	c.timed("store.put", parent, req, func() {
		k := store.Key{Algo: e.Meta.Algorithm, Corpus: corpusTag, Dim: dim, Seed: c.seed, Bits: bits, Scope: c.scope}
		_, err = c.st.Get(k, true, func() (*embedding.Embedding, error) { return e, nil })
	})
	return err
}

// pair trains (once) the aligned full-precision pair for (algo, dim), as
// a "pair" span of operation req.
func (c *composer) pair(req int, algo string, dim int) ([2]*embedding.Embedding, error) {
	key := fmt.Sprintf("%s/%d", algo, dim)
	if p, ok := c.pairs[key]; ok {
		return p, nil
	}
	tr, err := embtrain.Lookup(algo, c.cfg.Workers)
	if err != nil {
		return [2]*embedding.Embedding{}, err
	}
	var p [2]*embedding.Embedding
	c.timed("pair", "", req, func() {
		c.timed("embtrain."+algo, "pair", req, func() { p[0] = tr.Train(c.c17, dim, c.seed) })
		c.timed("embtrain."+algo, "pair", req, func() { p[1] = tr.Train(c.c18, dim, c.seed) })
		c.trainings += 2
		c.timed("embedding.align", "pair", req, func() { embedding.AlignTagged(p[0], p[1]) })
		if err = c.put("pair", req, "wiki17", dim, 32, p[0]); err == nil {
			err = c.put("pair", req, "wiki18a", dim, 32, p[1])
		}
	})
	if err != nil {
		return p, err
	}
	c.pairs[key] = p
	return p, nil
}

// quantized returns the cell's (quantized) aligned pair; the full-precision
// pair must already be trained.
func (c *composer) quantized(req int, cl cell) ([2]*embedding.Embedding, error) {
	p, ok := c.pairs[fmt.Sprintf("%s/%d", cl.algo, cl.dim)]
	if !ok {
		return p, fmt.Errorf("pair %s/%d not trained", cl.algo, cl.dim)
	}
	if cl.bits == 32 {
		return p, nil
	}
	key := fmt.Sprintf("%s/%d/%d", cl.algo, cl.dim, cl.bits)
	if q, ok := c.quant[key]; ok {
		return q, nil
	}
	var q [2]*embedding.Embedding
	c.timed("compress.quantize", "cell", req, func() {
		q[0], q[1] = compress.QuantizePairWorkers(p[0], p[1], cl.bits, c.cfg.Workers)
	})
	if err := c.put("cell", req, "wiki17", cl.dim, cl.bits, q[0]); err != nil {
		return q, err
	}
	if err := c.put("cell", req, "wiki18a", cl.dim, cl.bits, q[1]); err != nil {
		return q, err
	}
	c.quant[key] = q
	return q, nil
}

// trainPair runs a task's two model trainings the way the runner does:
// concurrently when the worker budget exceeds one.
func (c *composer) trainPair(f17, f18 func()) {
	if parallel.Workers(c.cfg.Workers) > 1 {
		fns := []func(){f17, f18}
		parallel.Run(2, 2, func(s int) { fns[s]() }, nil)
		return
	}
	f17()
	f18()
}

// cell composes one cell, whose pairs must already be trained, and returns
// its report and wall time.
func (c *composer) cell(req int, cl cell) (cellReport, time.Duration, error) {
	t0 := time.Now()
	var r cellReport
	q, err := c.quantized(req, cl)
	if err != nil {
		return r, 0, err
	}
	anc, ok := c.pairs[fmt.Sprintf("%s/%d", cl.algo, c.cfg.Dims[len(c.cfg.Dims)-1])]
	if !ok {
		return r, 0, fmt.Errorf("anchor pair of %v not trained", cl)
	}
	ms := core.NewMeasures(core.MeasureConfig{
		Anchors: anc[0].SubRows(c.ids), AnchorsTilde: anc[1].SubRows(c.ids),
		Alpha: c.cfg.Alpha, K: c.cfg.K, Queries: c.cfg.KNNQueries, Workers: c.cfg.Workers,
	})
	s17, s18 := q[0].SubRows(c.ids), q[1].SubRows(c.ids)
	for _, m := range ms {
		var v float64
		c.timed("core."+m.Name(), "cell", req, func() { v = m.Distance(s17, s18) })
		r = r.add(m.Name(), v)
	}
	for _, task := range cellTasks(cl) {
		ev, ok := c.evals[task]
		if !ok {
			c.timed("tasks.new", "cell", req, func() { ev, err = tasks.New(task, c.c17, c.cfg.Corpus) })
			if err != nil {
				return r, 0, err
			}
			c.evals[task] = ev
		}
		var res tasks.Result
		c.timed("tasks."+task, "cell", req, func() { res = ev.Eval(q[0], q[1], c.seed, c.trainPair) })
		r = r.add(task+".di", res.Disagreement).add(task+".acc", res.Accuracy)
	}
	end := time.Now()
	if c.tr != nil {
		c.tr.rec(0, "cell", "", req, t0, end)
	}
	return r, end.Sub(t0), nil
}

// warmReplay times three evaluations of every cell on warm caches (pairs,
// quantized pairs and task datasets built): the Service's, the untraced
// composition's and the traced composition's. They run back to back, in
// an order that rotates from cell to cell, so drift in host speed falls
// on all three alike. Every replay must reproduce the cell's report
// bitwise. It returns each cell's three wall times in that order.
func warmReplay(ctx context.Context, svc *anchor.Service, comp *composer, cells []cell, seed int64, want []cellReport) ([][3]time.Duration, error) {
	keep := comp.tr
	defer func() { comp.tr = keep }()
	out := make([][3]time.Duration, len(cells))
	for i, cl := range cells {
		for k := 0; k < 3; k++ {
			v := (i + k) % 3
			var r cellReport
			var err error
			comp.tr = nil
			if v == 2 {
				comp.tr = newTracer(1)
			}
			runtime.GC()
			if v == 0 {
				t0 := time.Now()
				r, err = serviceCell(ctx, svc, cl, seed)
				out[i][v] = time.Since(t0)
			} else {
				r, out[i][v], err = comp.cell(i, cl)
			}
			if err != nil {
				return nil, err
			}
			if !r.equal(want[i]) {
				return nil, fmt.Errorf("cell %v: warm replay %d differs from the first evaluation", cl, v)
			}
		}
	}
	return out, nil
}

// layers turns the composition's spans into per-layer metrics.
func (c *composer) layers() map[string]metric {
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	for _, s := range c.tr.all() {
		sum[s.Name] += s.dur()
		cnt[s.Name]++
	}
	avg := func(name string) time.Duration {
		if cnt[name] == 0 {
			return 0
		}
		return sum[name] / time.Duration(cnt[name])
	}
	out := map[string]metric{
		"corpus.generate_s":    {avg("corpus.generate").Seconds(), "s"},
		"embedding.align_ms":   {ms(avg("embedding.align")), "ms"},
		"compress.quantize_ms": {ms(avg("compress.quantize")), "ms"},
		"store.put_ms":         {ms(avg("store.put")), "ms"},
	}
	for _, algo := range embtrain.Names() {
		out["embtrain."+algo+"_s"] = metric{avg("embtrain." + algo).Seconds(), "s"}
	}
	for _, m := range core.MeasureNames() {
		out["core."+m+"_ms"] = metric{ms(avg("core." + m)), "ms"}
	}
	for _, t := range append(append([]string(nil), gridTasks...), "conll2003") {
		out["tasks."+t+"_ms"] = metric{ms(avg("tasks." + t)), "ms"}
	}
	return out
}

// cellLatencies lists each cell's time, so the positions of p50 and p99 in
// the cell mix are visible.
func cellLatencies(cells []cell, lat []float64) string {
	var b strings.Builder
	for i, c := range cells {
		fmt.Fprintf(&b, " %s/b%d=%.0f", c.algo, c.bits, lat[i])
	}
	return b.String()
}
