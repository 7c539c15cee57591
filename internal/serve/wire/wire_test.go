package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type,
// and requires the result to be deeply equal — every field survives the
// wire, no field is silently dropped by a tag typo.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v)).Interface()
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	got := reflect.ValueOf(out).Elem().Interface()
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%T round trip:\n sent %+v\n got  %+v", v, v, got)
	}
}

func sampleSet() repro.SetSpec {
	return repro.SetSpec{Tasks: []repro.TaskSpec{
		{Name: "t1", PeriodMS: 5, DeadlineMS: 4, WCETMS: 3, M: 2, K: 4},
		{Name: "t2", PeriodMS: 10, DeadlineMS: 10, WCETMS: 3, M: 1, K: 2},
	}}
}

// TestRoundTrip populates every field of every wire document with a
// non-zero value and requires an exact JSON round trip.
func TestRoundTrip(t *testing.T) {
	theta := int64(1500)
	docs := []any{
		SimulateRequest{
			Set: sampleSet(), Approach: "selective", Scenario: "both",
			Seed: 7, HorizonMS: 40, TransientRate: 1e-6, TimeoutMS: 250,
		},
		RunDoc{
			Schema: RunSchema, Fingerprint: "fp", Policy: "MKSS-Selective",
			Scenario: "permanent", Seed: 7, HorizonUS: 40000,
			Schedulable: true, ActiveEnergy: 12, TotalEnergy: 13.5,
			MKSatisfied: true, ViolationAt: []int{1},
			Counters:      repro.Counters{},
			PermanentAtUS: 1234, PermanentProc: 1,
		},
		EstimateRequest{
			Set: sampleSet(), Approach: "dp", Scenario: "permanent",
			Seed: 9, HorizonMS: 80, TransientRate: 2e-6,
			Backend: "twin", Refine: true, TimeoutMS: 100,
		},
		EstimateDoc{
			Schema: EstimateSchema, Fingerprint: "fp", Backend: "twin",
			Policy: "MKSS-DP", Scenario: "none", Seed: 9, HorizonUS: 80000,
			Schedulable: true, ActiveEnergy: 11.5, TotalEnergy: 12.25,
			MKPredicted: true, Exact: false, ElapsedUS: 42,
		},
		SweepRequest{
			Scenario: "both", Seed: 2020, SetsPerInterval: 3,
			MaxCandidates: 500, Lo: 0.1, Hi: 0.4,
			Approaches: []string{"st", "dp"}, TimeoutMS: 1000, IntervalOffset: 2,
		},
		SweepLine{
			Type: "row", Schema: SweepSchema, Scenario: "none", Seed: 1,
			Intervals: 9, UtilLo: 0.1, UtilHi: 0.2, Sets: 3, Candidates: 500,
			NormMean:   map[string]float64{"st": 1},
			NormCI95:   map[string]float64{"st": 0.1},
			Violations: map[string]int{"st": 0},
			ElapsedMS:  10.5, Error: "boom",
		},
		AnalyzeTask{
			Name: "t1", PeriodUS: 5000, DeadlineUS: 4000, WCETUS: 3000,
			M: 2, K: 4, ResponseUS: 3000, RTAConverged: true,
			PromotionUS: 1000, ThetaUS: &theta, MKUtil: 0.3,
		},
		AnalyzeDoc{
			Schema: AnalyzeSchema, Fingerprint: "fp", Utilization: 0.9,
			MKUtil: 0.45, Schedulable: true,
			Tasks:      []AnalyzeTask{{PeriodUS: 5000}},
			ThetaError: "theta failed",
		},
		ErrorDoc{Error: "queue full", Code: CodeQueueFull},
		HealthDoc{Status: "ok", InFlight: 1, Queued: 2},
	}
	for _, d := range docs {
		roundTrip(t, d)
	}
}

// TestEstimateRequestMirrorsSimulateRequest pins the refine contract:
// every SimulateRequest field exists on EstimateRequest with the same
// type and JSON tag, so an estimate request can be replayed as the
// simulation it approximates without translation.
func TestEstimateRequestMirrorsSimulateRequest(t *testing.T) {
	sim := reflect.TypeOf(SimulateRequest{})
	est := reflect.TypeOf(EstimateRequest{})
	for i := 0; i < sim.NumField(); i++ {
		sf := sim.Field(i)
		ef, ok := est.FieldByName(sf.Name)
		if !ok {
			t.Errorf("EstimateRequest lacks SimulateRequest field %s", sf.Name)
			continue
		}
		if ef.Type != sf.Type {
			t.Errorf("EstimateRequest.%s type %v, SimulateRequest has %v", sf.Name, ef.Type, sf.Type)
		}
		if ef.Tag.Get("json") != sf.Tag.Get("json") {
			t.Errorf("EstimateRequest.%s json tag %q, SimulateRequest has %q",
				sf.Name, ef.Tag.Get("json"), sf.Tag.Get("json"))
		}
	}
}

// TestSchemaTags pins the version strings clients dispatch on.
func TestSchemaTags(t *testing.T) {
	want := map[string]string{
		RunSchema:      "mkss-run/v1",
		SweepSchema:    "mkss-sweep/v1",
		AnalyzeSchema:  "mkss-analyze/v2",
		EstimateSchema: "mkss-estimate/v1",
	}
	for got, exp := range want {
		if got != exp {
			t.Errorf("schema tag %q, want %q", got, exp)
		}
	}
}
