package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestRun runs the example end to end through locater.System and checks
// that it prints its headline and gets as far as its closing report.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`^index case: \S+ \(Undergraduate\), tracing the last 2 days of a 14-day trace\n`),
		regexp.MustCompile(`(?m)^(\d+ devices with ≥30 min|no contacts above)`),
	} {
		if !want.Match(out.Bytes()) {
			t.Fatalf("output does not match %s:\n%s", want, out.String())
		}
	}
}
