package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"batlife/internal/core"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/units"
	"batlife/internal/workload"
)

func onOffModel(t testing.TB, battery kibam.Params) mrm.KiBaMRM {
	t.Helper()
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	return mrm.KiBaMRM{Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: battery}
}

var paperBattery = kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}

func TestCacheLRU(t *testing.T) {
	c := NewCache[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	// 1 is now most recent; inserting 3 must evict 2.
	c.Put(3, "c")
	if _, ok := c.Get(2); ok {
		t.Error("entry 2 survived eviction")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("recently-used entry 1 was evicted")
	}
	if _, ok := c.Get(3); !ok {
		t.Error("entry 3 missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// Refreshing an existing key must not grow the cache.
	c.Put(1, "a2")
	if v, _ := c.Get(1); v != "a2" {
		t.Errorf("refreshed value = %q, want a2", v)
	}
	if c.Len() != 2 {
		t.Errorf("Len after refresh = %d, want 2", c.Len())
	}
}

func TestFingerprintContentAddressing(t *testing.T) {
	// Two structurally identical models built independently must share
	// a key; any change to battery or delta must separate them.
	m1 := onOffModel(t, paperBattery)
	m2 := onOffModel(t, paperBattery)
	k1 := Fingerprint(m1, 100, core.Options{})
	if k1 != Fingerprint(m2, 100, core.Options{}) {
		t.Error("identical models fingerprint differently")
	}
	distinct := map[Key]string{k1: "base"}
	cases := []struct {
		name  string
		model mrm.KiBaMRM
		delta float64
	}{
		{"delta", m1, 50},
		{"battery-capacity", onOffModel(t, kibam.Params{Capacity: 3600, C: 0.625, K: 4.5e-5}), 100},
		{"battery-c", onOffModel(t, kibam.Params{Capacity: 7200, C: 0.5, K: 4.5e-5}), 100},
		{"battery-k", onOffModel(t, kibam.Params{Capacity: 7200, C: 0.625, K: 9e-5}), 100},
	}
	for _, tc := range cases {
		k := Fingerprint(tc.model, tc.delta, core.Options{})
		if prev, dup := distinct[k]; dup {
			t.Errorf("%s collides with %s", tc.name, prev)
		}
		distinct[k] = tc.name
	}
}

func TestFingerprintWorkloadContent(t *testing.T) {
	// Differing currents or transition rates must change the key.
	base := onOffModel(t, paperBattery)
	hot := onOffModel(t, paperBattery)
	hot.Currents = append([]float64(nil), hot.Currents...)
	for i := range hot.Currents {
		if hot.Currents[i] > 0 {
			hot.Currents[i] *= 2
		}
	}
	k1 := Fingerprint(base, 100, core.Options{})
	k2 := Fingerprint(hot, 100, core.Options{})
	if k1 == k2 {
		t.Error("changed currents share a fingerprint")
	}

	slow, err := workload.OnOff(0.5, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	k3 := Fingerprint(mrm.KiBaMRM{
		Workload: slow.Chain, Currents: slow.Currents, Initial: slow.Initial, Battery: paperBattery,
	}, 100, core.Options{})
	if k1 == k3 {
		t.Error("changed transition rates share a fingerprint")
	}
}

// expand fetches the model through the engine under its own
// fingerprint, as the solver does.
func expand(e *Engine, m mrm.KiBaMRM, delta float64) (*core.Expanded, bool, error) {
	return e.Expanded(context.Background(), Fingerprint(m, delta, core.Options{}), m, delta)
}

func TestExpandedServesGivenKey(t *testing.T) {
	// Expanded looks the cache up under the key its caller computed and
	// does not hash the model again: a stored entry is served for its
	// key whatever model accompanies it.
	e := New(Options{Capacity: 4, Workers: 1})
	m := onOffModel(t, paperBattery)
	key := Fingerprint(m, 100, core.Options{})
	a, hit, err := e.Expanded(context.Background(), key, m, 100)
	if err != nil || hit {
		t.Fatalf("first query: hit %v, err %v", hit, err)
	}
	other := onOffModel(t, kibam.Params{Capacity: 3600, C: 0.625, K: 4.5e-5})
	b, hit, err := e.Expanded(context.Background(), key, other, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || b != a {
		t.Errorf("query under a stored key: hit %v, same model %v; want the stored entry", hit, b == a)
	}
}

func TestEngineReusesExpanded(t *testing.T) {
	e := New(Options{Capacity: 4, Workers: 1})
	m := onOffModel(t, paperBattery)
	a, hit, err := expand(e, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first query reported a cache hit")
	}
	b, hit, err := expand(e, onOffModel(t, paperBattery), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("identical query reported a miss")
	}
	if a != b {
		t.Error("identical queries expanded the model twice")
	}
	if n := e.Stats().Entries; n != 1 {
		t.Errorf("Stats().Entries = %d, want 1", n)
	}
	c, hit, err := expand(e, m, 50)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("different delta reported a cache hit")
	}
	if c == a {
		t.Error("different delta reused the cached model")
	}
	if n := e.Stats().Entries; n != 2 {
		t.Errorf("Stats().Entries = %d, want 2", n)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("Stats = %+v, want Hits 1, Misses 2, Entries 2", st)
	}
}

func TestEngineEviction(t *testing.T) {
	e := New(Options{Capacity: 1, Workers: 1})
	m := onOffModel(t, paperBattery)
	a, _, err := expand(e, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := expand(e, m, 50); err != nil {
		t.Fatal(err)
	}
	b, _, err := expand(e, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("evicted model came back from the cache")
	}
	if n := e.Stats().Entries; n != 1 {
		t.Errorf("Stats().Entries = %d, want 1", n)
	}
	if st := e.Stats(); st.Evictions != 2 {
		t.Errorf("Stats.Evictions = %d, want 2", st.Evictions)
	}
}

func TestEngineBuildErrorNotCached(t *testing.T) {
	e := New(Options{Capacity: 4, Workers: 1})
	m := onOffModel(t, paperBattery)
	if _, _, err := expand(e, m, 7); err == nil {
		t.Fatal("non-divisor delta accepted")
	}
	if n := e.Stats().Entries; n != 0 {
		t.Errorf("failed build left %d cache entries", n)
	}
}

func TestEngineConcurrentAccess(t *testing.T) {
	// Concurrent hits and misses on one engine must be race-clean; the
	// solved values must match the sequential path bit for bit.
	e := New(Options{Capacity: 2, Workers: 2})
	m := onOffModel(t, paperBattery)
	times := []float64{10000, 15000}
	want := make(map[float64][]float64)
	for _, delta := range []float64{100, 50} {
		x, err := core.Build(m, delta, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.LifetimeCDF(times)
		if err != nil {
			t.Fatal(err)
		}
		want[delta] = res.EmptyProb
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		delta := []float64{100, 50}[g%2]
		go func() {
			x, _, err := expand(e, m, delta)
			if err != nil {
				errc <- err
				return
			}
			res, err := x.LifetimeCDF(times)
			if err != nil {
				errc <- err
				return
			}
			for k, p := range res.EmptyProb {
				//numlint:ignore floatcmp cached and fresh solves must agree bit for bit
				if p != want[delta][k] {
					errc <- fmt.Errorf("delta=%g t=%g: cached %v != fresh %v", delta, times[k], p, want[delta][k])
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func TestEngineSingleflight(t *testing.T) {
	// n concurrent first requests for one key must record exactly one
	// build (a miss) and n−1 waiter-hits, all sharing one *Expanded.
	reg := obs.NewRegistry()
	e := New(Options{Capacity: 4, Workers: 1, Obs: reg})
	m := onOffModel(t, paperBattery)
	const n = 16
	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		mu    sync.Mutex
		got   = make(map[*core.Expanded]int)
		hits  int
	)
	start.Add(1)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			x, hit, err := expand(e, m, 100)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got[x]++
			if hit {
				hits++
			}
			mu.Unlock()
		}()
	}
	start.Done()
	wg.Wait()
	if len(got) != 1 {
		t.Fatalf("concurrent requests produced %d distinct models, want 1", len(got))
	}
	st := e.Stats()
	if st.Misses != 1 {
		t.Errorf("Stats.Misses = %d, want exactly 1 build", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("Stats.Hits = %d, want %d waiter-hits", st.Hits, n-1)
	}
	if hits != n-1 {
		t.Errorf("%d calls reported hit=true, want %d", hits, n-1)
	}
	if st.Entries != 1 {
		t.Errorf("Stats.Entries = %d, want 1", st.Entries)
	}
	// The registry counters must agree with Stats.
	if v := reg.Counter("engine_cache_misses_total").Value(); v != 1 {
		t.Errorf("engine_cache_misses_total = %d, want 1", v)
	}
	if v := reg.Counter("engine_cache_hits_total").Value(); v != n-1 {
		t.Errorf("engine_cache_hits_total = %d, want %d", v, n-1)
	}
}
