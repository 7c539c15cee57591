package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// handleMetrics renders the server's observability surface as a plain
// text dump, one "name value" pair per line: the server gauges
// (in-flight, queued, rejected, coalesced, ...), the analysis-cache
// counters, and the internal/metrics run counters aggregated over every
// simulation the server executed. Lines are emitted in sorted order so
// the output is diff-stable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, http.StatusMethodNotAllowed, 0, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	b.WriteString("# mkservd server gauges\n")
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	queued, inflight := s.Load()
	writePairs(&b, "mkservd_", [][2]string{
		{"aborted_total", u(s.aborted.Load())},
		{"coalesced_total", u(s.coalesced.Load())},
		{"draining", strconv.FormatInt(draining, 10)},
		{"failures_total", u(s.failures.Load())},
		{"inflight", strconv.FormatInt(inflight-1, 10)}, // exclude this request
		{"queue_depth", strconv.Itoa(s.cfg.QueueDepth)},
		{"queued", strconv.FormatInt(queued, 10)},
		{"rejected_total", u(s.rejected.Load())},
		{"requests_total", u(s.requests.Load())},
		{"slots", strconv.Itoa(s.cfg.MaxInFlight)},
	})
	if st := s.cfg.Store; st != nil {
		b.WriteString("# persistent result store\n")
		stats := st.Stats()
		writePairs(&b, "mkservd_store_", [][2]string{
			{"corrupt_recovered_total", u(stats.CorruptRecovered)},
			{"disk_bytes", strconv.FormatInt(stats.DiskBytes, 10)},
			{"hits_total", u(stats.Hits)},
			{"keys", strconv.Itoa(stats.Keys)},
			{"misses_total", u(stats.Misses)},
			{"segments", strconv.Itoa(stats.Segments)},
			{"superseded", strconv.Itoa(stats.Superseded)},
			{"writes_total", u(stats.Writes)},
		})
	}
	if rej := s.quotaRejections.Snapshot(); len(rej) > 0 {
		b.WriteString("# per-tenant quota rejections\n")
		for _, tenant := range s.quotaRejections.Keys() {
			fmt.Fprintf(&b, "mkservd_quota_rejected_total{tenant=%q} %d\n", tenant, rej[tenant])
		}
	}
	b.WriteString("# analysis cache\n")
	st := s.runner.CacheStats()
	writePairs(&b, "mkservd_cache_", [][2]string{
		{"capacity", strconv.Itoa(st.Capacity)},
		{"entries", strconv.Itoa(st.Entries)},
		{"evictions_total", u(st.Evictions)},
		{"hits_total", u(st.Hits)},
		{"misses_total", u(st.Misses)},
	})
	b.WriteString("# run counters (internal/metrics, summed over executed simulations)\n")
	s.aggMu.Lock()
	agg, runs := s.agg, s.aggRuns
	s.aggMu.Unlock()
	fmt.Fprintf(&b, "mkss_runs_total %d\n", runs)
	for _, kv := range flattenJSON("mkss_", agg) {
		fmt.Fprintf(&b, "%s %s\n", kv[0], kv[1])
	}
	if _, err := w.Write([]byte(b.String())); err != nil {
		fmt.Fprintf(s.cfg.Log, "mkservd: write metrics: %v\n", err)
	}
}

func u(v uint64) string { return strconv.FormatUint(v, 10) }

func writePairs(b *strings.Builder, prefix string, pairs [][2]string) {
	for _, kv := range pairs {
		b.WriteString(prefix)
		b.WriteString(kv[0])
		b.WriteByte(' ')
		b.WriteString(kv[1])
		b.WriteByte('\n')
	}
}

// flattenJSON renders any JSON-marshalable value as sorted (name, value)
// pairs, flattening nested objects with '_' and arrays with their index:
// Counters.Proc[0].Busy becomes mkss_proc_0_busy_us.
func flattenJSON(prefix string, v any) [][2]string {
	data, err := json.Marshal(v)
	if err != nil {
		return [][2]string{{prefix + "marshal_error", "1"}}
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		return [][2]string{{prefix + "marshal_error", "1"}}
	}
	var out [][2]string
	flattenInto(&out, strings.TrimSuffix(prefix, "_"), tree)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func flattenInto(out *[][2]string, name string, v any) {
	switch v := v.(type) {
	case map[string]any:
		// Collect and sort the keys: flattenInto feeds sorted text output.
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flattenInto(out, name+"_"+k, v[k])
		}
	case []any:
		for i, e := range v {
			flattenInto(out, name+"_"+strconv.Itoa(i), e)
		}
	case float64:
		*out = append(*out, [2]string{name, strconv.FormatFloat(v, 'f', -1, 64)})
	case bool:
		b := "0"
		if v {
			b = "1"
		}
		*out = append(*out, [2]string{name, b})
	case string:
		// Text values do not fit a numeric metrics dump; skip.
	case nil:
	}
}
