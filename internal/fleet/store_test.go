package fleet

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// openStore opens (or reopens) the test store at dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetStoreWarmRun pins the cross-run cache property: a sweep run
// against a warm store satisfies every unit from disk — zero dispatches,
// no live worker needed — and the rows are byte-identical to the cold
// run that populated it.
func TestFleetStoreWarmRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := testSpec()

	// Cold run: a real worker computes every unit; the coordinator
	// writes each row back.
	a, _ := newWorker(t)
	cfg := fastConfig(t, []string{a}, spec)
	cfg.Store = openStore(t, dir)
	cold, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, cold, referenceRows(t, spec))
	if sum.FromStore != 0 || sum.Dispatched != 3 {
		t.Fatalf("cold run summary = %+v, want 0 from store, 3 dispatched", sum)
	}
	if st := cfg.Store.Stats(); st.Writes != 3 {
		t.Fatalf("cold run wrote %d store records, want 3", st.Writes)
	}
	if err := cfg.Store.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm run, fresh store handle (a different process in real life):
	// the configured worker address is unroutable on purpose — a warm
	// sweep must never touch the network.
	cfg2 := fastConfig(t, []string{"127.0.0.1:1"}, spec)
	cfg2.Store = openStore(t, dir)
	defer cfg2.Store.Close() //mklint:allow errdrop — test cleanup
	warm, sum2, err := runFleet(t, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, warm, referenceRows(t, spec))
	if sum2.FromStore != 3 || sum2.Dispatched != 0 {
		t.Fatalf("warm run summary = %+v, want 3 from store, 0 dispatched", sum2)
	}
	for i := 1; i <= 3; i++ { // rows (not start/done — done carries wall-clock)
		if string(cold[i]) != string(warm[i]) {
			t.Errorf("row %d differs between cold and warm run:\n cold %s\n warm %s", i-1, cold[i], warm[i])
		}
	}
}

// TestFleetSharedStoreWritesOnce pins the topology of mkfleet -elastic
// -store: the worker shares the coordinator's store, so it puts each row
// before the coordinator puts the same bytes under the same key, and
// that second put writes nothing.
func TestFleetSharedStoreWritesOnce(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "store"))
	defer st.Close() //mklint:allow errdrop — test cleanup
	ts := httptest.NewServer(serve.NewServer(serve.Config{Store: st}).Handler())
	defer ts.Close()

	spec := testSpec()
	cfg := fastConfig(t, []string{strings.TrimPrefix(ts.URL, "http://")}, spec)
	cfg.Store = st
	lines, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.Dispatched != 3 {
		t.Fatalf("summary = %+v, want 3 dispatched", sum)
	}
	if s := st.Stats(); s.Writes != 3 || s.Superseded != 0 {
		t.Errorf("store = %+v, want 3 writes and 0 superseded (one put per unit)", s)
	}
}
