package sim

// The calendar queue behind the engine's event loop. Every function here
// runs once or more per simulated event; keep it allocation-free.
//mklint:hotpath file

import (
	"math/bits"

	"repro/internal/task"
	"repro/internal/timeu"
)

const (
	// wheelBuckets is the fixed bucket count of the calendar queue. A
	// power of two keeps the bucket map a mask; a fixed count (rather
	// than one derived from the task set) lets a pooled Scratch reuse
	// the bucket storage across runs of different sets.
	wheelBuckets = 256
	wheelMask    = wheelBuckets - 1
	// wheelWords is the length of the occupancy bitmap, one bit per bucket.
	wheelWords = wheelBuckets / 64
	// wheelScanLimit bounds how many windows beyond now's nextAfter
	// looks into. Event instants in a periodic schedule land within a few
	// buckets of each other when delta divides the periods; a sparse tail
	// (e.g. only a far-away deadline left near the horizon) falls back to
	// one global scan instead of walking laps of windows.
	wheelScanLimit = 64
	// wheelBucketCap is the initial capacity carved out for each bucket
	// from one shared backing array, so a cold wheel costs one allocation
	// instead of one per touched bucket. Buckets outgrowing it reallocate
	// individually (the full-slice expressions below forbid overlap).
	wheelBucketCap = 4
)

// timeWheel is a calendar queue of future event instants: a fixed ring of
// buckets, each an unsorted multiset of times, with bucket width delta
// sized from the GCD of the task periods so periodic instants (releases,
// deadlines) hash into dense, short buckets. Times are exact — the wheel
// never quantizes; delta only chooses the hashing, so off-grid instants
// (θ-postponed activations, promotions, completions) are merely less
// evenly spread, never misplaced.
//
// The multiset supports O(1) schedule, O(bucket) unschedule, and an
// amortized O(1) nextAfter that lazily drops instants at or before now —
// an instant that has been reached has, by construction of the event
// loop, already been fully processed.
//
// occ is the occupancy bitmap: bit b is set exactly when bucket b holds
// an entry. Every operation that empties or fills a bucket keeps it
// current, so the walks jump from one non-empty bucket to the next with
// a trailing-zero count instead of visiting the empty ones between.
type timeWheel struct {
	delta   timeu.Time
	count   int
	occ     [wheelWords]uint64
	buckets [wheelBuckets][]timeu.Time
}

// sizeFor picks the bucket width for a task set: the GCD of every period,
// deadline and nonzero offset, clamped to at least one tick. Release and
// deadline instants are then exact multiples of delta, so consecutive
// events sit a handful of buckets apart and nextAfter's walk is short.
func (w *timeWheel) sizeFor(set *task.Set) {
	var g timeu.Time
	for i := range set.Tasks {
		t := &set.Tasks[i]
		g = timeu.GCD(g, t.Period)
		g = timeu.GCD(g, t.Deadline)
		if t.Offset != 0 {
			g = timeu.GCD(g, t.Offset)
		}
	}
	if g < 1 {
		g = 1
	}
	w.delta = g
	if w.buckets[0] == nil {
		backing := make([]timeu.Time, wheelBuckets*wheelBucketCap)
		for b := range w.buckets {
			w.buckets[b] = backing[b*wheelBucketCap : b*wheelBucketCap : (b+1)*wheelBucketCap]
		}
	}
}

// reset empties every bucket, retaining capacity. Only occupied buckets
// hold entries, so only those need truncating.
func (w *timeWheel) reset() {
	for wi, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			b := wi<<6 | bits.TrailingZeros64(word)
			w.buckets[b] = w.buckets[b][:0]
		}
		w.occ[wi] = 0
	}
	w.count = 0
}

// schedule records a future instant. Duplicates are kept: each scheduled
// occurrence is owned by whoever scheduled it and unscheduled (or simply
// consumed by time passing it) independently.
func (w *timeWheel) schedule(t timeu.Time) {
	b := int(t/w.delta) & wheelMask
	w.buckets[b] = append(w.buckets[b], t)
	w.occ[b>>6] |= 1 << uint(b&63)
	w.count++
}

// vacate clears bucket b's occupancy bit; callers invoke it when they
// remove the bucket's last entry.
func (w *timeWheel) vacate(b int) {
	w.occ[b>>6] &^= 1 << uint(b&63)
}

// occupiedFrom returns the distance, counted in buckets around the ring,
// from bucket b to the first occupied bucket at or after it, or
// wheelBuckets when every bucket is empty.
func (w *timeWheel) occupiedFrom(b int) int {
	wi := b >> 6
	word := w.occ[wi] &^ (1<<uint(b&63) - 1)
	for n := 0; n <= wheelWords; n++ {
		if word != 0 {
			next := wi<<6 | bits.TrailingZeros64(word)
			return (next - b) & wheelMask
		}
		wi = (wi + 1) % wheelWords
		word = w.occ[wi]
	}
	return wheelBuckets
}

// unschedule removes one occurrence of a future instant, if present. The
// engine unschedules exactly what it scheduled, but an occurrence may
// already have been consumed by nextAfter once now passed it — absence is
// not an error.
func (w *timeWheel) unschedule(t timeu.Time) {
	b := int(t/w.delta) & wheelMask
	bk := w.buckets[b]
	for i, v := range bk {
		if v == t {
			bk[i] = bk[len(bk)-1]
			w.buckets[b] = bk[:len(bk)-1]
			if len(bk) == 1 {
				w.vacate(b)
			}
			w.count--
			return
		}
	}
}

// nextAfter returns the earliest scheduled instant strictly after now, or
// timeu.Infinity when none remains. Instants at or before now are dropped
// as they are encountered. The walk visits bucket windows in time order
// starting at now's window; a window's in-window minimum, when one
// exists, is the global minimum because every earlier window has already
// been exhausted. Entries from later laps hash into the same buckets but
// fall outside the current window and are skipped, not returned early.
//
// The occupancy bitmap lets the walk skip empty windows outright: they
// hold nothing to drop and nothing to return, so jumping over them
// changes no result and no wheel state. The windows visited, and the
// wheelScanLimit bound after which the walk gives up for scanAll, are
// those of a window-by-window walk.
func (w *timeWheel) nextAfter(now timeu.Time) timeu.Time {
	if w.count == 0 {
		return timeu.Infinity
	}
	ord := now / w.delta
	b0 := int(ord) & wheelMask
	for i := 0; ; i++ {
		i += w.occupiedFrom((b0 + i) & wheelMask)
		if i > wheelScanLimit {
			break
		}
		o := ord + timeu.Time(i)
		hi := (o + 1) * w.delta
		if best := w.drain(int(o)&wheelMask, now, hi); best != timeu.Infinity {
			return best
		}
		if w.count == 0 {
			return timeu.Infinity
		}
	}
	return w.scanAll(now)
}

// drain drops bucket b's entries at or before now and returns its
// smallest entry below hi, or timeu.Infinity. It writes the bucket back
// only when it removed an entry.
func (w *timeWheel) drain(b int, now, hi timeu.Time) timeu.Time {
	best := timeu.Infinity
	bk := w.buckets[b]
	n := len(bk)
	for k := 0; k < len(bk); {
		v := bk[k]
		if v <= now {
			bk[k] = bk[len(bk)-1]
			bk = bk[:len(bk)-1]
			continue
		}
		if v < hi && v < best {
			best = v
		}
		k++
	}
	if len(bk) != n {
		w.buckets[b] = bk
		w.count -= n - len(bk)
		if len(bk) == 0 {
			w.vacate(b)
		}
	}
	return best
}

// scanAll is the sparse-tail fallback: one pass over every occupied
// bucket, dropping stale entries and returning the global minimum after
// now.
func (w *timeWheel) scanAll(now timeu.Time) timeu.Time {
	best := timeu.Infinity
	for wi, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			if v := w.drain(wi<<6|bits.TrailingZeros64(word), now, timeu.Infinity); v < best {
				best = v
			}
		}
	}
	return best
}
