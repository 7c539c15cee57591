package analysis

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/rta"
	"repro/internal/task"
)

func paperSet() *task.Set {
	return task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
}

func TestFingerprintCanonical(t *testing.T) {
	a := paperSet()
	b := paperSet()
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("identical sets fingerprint differently:\n%s\n%s", Fingerprint(a), Fingerprint(b))
	}
	// Names never influence scheduling and must not split cache entries.
	named := paperSet()
	named.Tasks[0].Name = "tau1"
	if Fingerprint(named) != Fingerprint(a) {
		t.Errorf("task name changed the fingerprint")
	}
	// Every simulation-relevant field must change it.
	mutations := []func(*task.Set){
		func(s *task.Set) { s.Tasks[0].Period++ },
		func(s *task.Set) { s.Tasks[0].Deadline++ },
		func(s *task.Set) { s.Tasks[0].WCET++ },
		func(s *task.Set) { s.Tasks[0].M-- },
		func(s *task.Set) { s.Tasks[0].K++ },
		func(s *task.Set) { s.Tasks[1].Offset++ },
	}
	for i, mutate := range mutations {
		m := paperSet()
		mutate(m)
		if Fingerprint(m) == Fingerprint(a) {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
}

func TestProductsMatchDirectComputation(t *testing.T) {
	s := paperSet()
	p := New(s, Options{})

	wantResp, _ := rta.ResponseTimesSafe(s)
	if got, conv := p.ResponseTimes(); !reflect.DeepEqual(got, wantResp) {
		t.Errorf("ResponseTimes = %v, want %v", got, wantResp)
	} else {
		for i, ok := range conv {
			if !ok {
				t.Errorf("task %d reported diverged on a convergent set", i)
			}
		}
	}
	wantPromo := rta.PromotionTimesSafe(s)
	if got := p.PromotionTimes(); !reflect.DeepEqual(got, wantPromo) {
		t.Errorf("PromotionTimes = %v, want %v", got, wantPromo)
	}
	wantPost, err := postpone.Compute(s, postpone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotPost, err := p.Postponement()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPost.Theta, wantPost.Theta) {
		t.Errorf("Postponement theta = %v, want %v", gotPost.Theta, wantPost.Theta)
	}
	if !p.Schedulable() {
		t.Errorf("paper set reported unschedulable")
	}
	// Mandatory must agree with the pattern predicate, cyclically.
	for _, tk := range s.Tasks {
		for j := 1; j <= 2*tk.K; j++ {
			if got, want := p.Mandatory(tk.ID, j), pattern.Mandatory(pattern.RPattern, j, tk.M, tk.K); got != want {
				t.Fatalf("Mandatory(%d,%d) = %v, want %v", tk.ID, j, got, want)
			}
		}
	}
}

func TestProductsConcurrentAccess(t *testing.T) {
	p := New(paperSet(), Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.PromotionTimes()
			_, _ = p.Postponement()
			_ = p.Schedulable()
			_ = p.Mandatory(0, 3)
		}()
	}
	wg.Wait()
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(2)
	setA := paperSet()
	setB := task.NewSet(task.New(0, 5, 2.5, 2, 2, 4), task.New(1, 4, 4, 2, 2, 4))
	setC := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))

	pa := c.Get(setA, Options{})
	if pa2 := c.Get(setA, Options{}); pa2 != pa {
		t.Fatalf("second Get of the same set returned a different Products")
	}
	// A regenerated-but-identical set must hit the same entry.
	if pa3 := c.Get(paperSet(), Options{}); pa3 != pa {
		t.Fatalf("identical regenerated set missed the cache")
	}
	c.Get(setB, Options{})
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses, 0 evictions, 2 entries", st)
	}

	// Capacity 2: inserting C evicts the least recently used entry (A).
	c.Get(setC, Options{})
	st = c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after eviction: stats = %+v, want 1 eviction, 2 entries", st)
	}
	if pb := c.Get(setB, Options{}); pb == nil {
		t.Fatalf("B evicted although more recently used than A")
	}
	if st = c.Stats(); st.Hits != 3 {
		t.Fatalf("B should still be cached, stats = %+v", st)
	}
	if pa4 := c.Get(setA, Options{}); pa4 == pa {
		t.Fatalf("A should have been evicted and rebuilt")
	}
}

func TestCacheDistinguishesOptions(t *testing.T) {
	c := NewCache(0)
	s := paperSet()
	p1 := c.Get(s, Options{})
	p2 := c.Get(s, Options{HyperperiodCap: 123456})
	if p1 == p2 {
		t.Fatalf("different options shared one cache entry")
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(4)
	sets := []*task.Set{
		paperSet(),
		task.NewSet(task.New(0, 5, 2.5, 2, 2, 4), task.New(1, 4, 4, 2, 2, 4)),
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := c.Get(sets[i%len(sets)], Options{})
			_ = p.PromotionTimes()
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (%+v)", st.Entries, st)
	}
}
