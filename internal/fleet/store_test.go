package fleet

import (
	"path/filepath"
	"testing"

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

// TestFleetStoreFillsResumeJournal pins the interaction with -resume: a
// store hit is journaled like a computed unit, so a subsequent resume
// run is warm even without the store.
func TestFleetStoreFillsResumeJournal(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	a, _ := newWorker(t)
	cfg := fastConfig(t, []string{a}, spec)
	cfg.Store = openStore(t, filepath.Join(dir, "store"))
	if _, _, err := runFleet(t, cfg); err != nil {
		t.Fatal(err)
	}

	// Warm run with a checkpoint: every unit comes from the store and
	// lands in the journal.
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	cfg2 := fastConfig(t, []string{"127.0.0.1:1"}, spec)
	cfg2.Store = cfg.Store
	cfg2.CheckpointPath = ckpt
	if _, sum, err := runFleet(t, cfg2); err != nil || sum.FromStore != 3 {
		t.Fatalf("warm run: err=%v summary=%+v, want 3 from store", err, sum)
	}

	// Resume from that journal with no store at all: still zero
	// dispatches.
	cfg3 := fastConfig(t, []string{"127.0.0.1:1"}, spec)
	cfg3.CheckpointPath = ckpt
	cfg3.Resume = true
	lines, sum, err := runFleet(t, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.FromCheckpoint != 3 || sum.Dispatched != 0 {
		t.Fatalf("resume summary = %+v, want 3 from checkpoint, 0 dispatched", sum)
	}
	if err := cfg.Store.Close(); err != nil {
		t.Fatal(err)
	}
}
