package main

import (
	"strings"
	"testing"

	"repro"
)

// TestScenarioUsageNamesParse pins that every scenario the -scenario
// usage string lists is one the sweep's parser accepts: the usage once
// advertised "transient", which the parser refuses.
func TestScenarioUsageNamesParse(t *testing.T) {
	_, list, ok := strings.Cut(scenarioUsage, ": ")
	if !ok {
		t.Fatalf("usage %q lists no scenarios", scenarioUsage)
	}
	for _, name := range strings.Split(list, " | ") {
		if _, err := repro.ParseScenario(name); err != nil {
			t.Errorf("-scenario usage lists %q: %v", name, err)
		}
	}
}
