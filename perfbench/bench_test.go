package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload briefly on a tiny corpus, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, and passes its oracle and shape checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains embeddings")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		runW, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 2, trace: traced, tiny: true, dir: t.TempDir()}
			rep, err := runW(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%v",
					w.Name, traced, rep.res.Correct, rep.res.Failed, rep.res.Attempted, rep.notes)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for name, m := range rep.res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics\n got  %v\n want %v", w.Name, traced, got, want)
			}
			if !traced {
				for name, m := range rep.res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// classCounts counts a plan's timed ops per class.
func classCounts(p *plan) []int {
	out := make([]int, len(p.classes))
	for _, pi := range p.ops {
		out[p.pool[pi].cls]++
	}
	return out
}

// sequence renders a plan's timed ops as their request bytes.
func sequence(p *plan) []string {
	out := make([]string, len(p.ops))
	for i, pi := range p.ops {
		out[i] = p.pool[pi].target + string(p.pool[pi].body)
	}
	return out
}

// TestSeedsChangeSequenceNotShape checks that two seeds give different
// request sequences with the same class shares and the same exact counts.
func TestSeedsChangeSequenceNotShape(t *testing.T) {
	sc := readScaleFor(true)
	words := make([]string, 500)
	for i := range words {
		words[i] = "w" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	for _, mk := range []struct {
		name string
		plan func(seed int64) *plan
	}{
		{"read-hot", func(seed int64) *plan { return planHot(seed, sc, words, 5) }},
		{"read-churn", func(seed int64) *plan { return planChurn(seed, sc, words, 5) }},
	} {
		a, b := mk.plan(1), mk.plan(2)
		if reflect.DeepEqual(sequence(a), sequence(b)) {
			t.Errorf("%s: seeds 1 and 2 give the same request sequence", mk.name)
		}
		ca, cb := classCounts(a), classCounts(b)
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: class counts differ: %v vs %v", mk.name, ca, cb)
		}
		for ci, c := range a.classes {
			if want := c.weight * 5; ca[ci] != want {
				t.Errorf("%s: class %s has %d ops, want %d", mk.name, c.name, ca[ci], want)
			}
		}
	}

	if testing.Short() {
		return
	}
	// grid-cell: the seed sets the training seed, so two seeds give
	// different reports from the same store computes.
	var digests []uint64
	var computes []int64
	for _, seed := range []int64{1, 2} {
		o := options{workload: "grid-cell", seed: seed, seconds: 1, tiny: true, dir: t.TempDir()}
		rep, err := runGrid(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.res.Correct {
			t.Fatalf("grid-cell seed %d: %v", seed, rep.notes)
		}
		digests = append(digests, rep.digest)
		computes = append(computes, rep.computes)
	}
	if digests[0] == digests[1] {
		t.Errorf("grid-cell: seeds 1 and 2 give the same report digest %016x", digests[0])
	}
	if computes[0] != computes[1] || computes[0] == 0 {
		t.Errorf("grid-cell: store computes %v, want equal and non-zero", computes)
	}
}
