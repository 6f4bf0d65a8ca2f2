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
		regexp.MustCompile(`^office simulation: \d+ people, \d+ connectivity events over 14 days\n`),
		regexp.MustCompile(`(?m)^busiest rooms at 11:00`),
	} {
		if !want.Match(out.Bytes()) {
			t.Fatalf("output does not match %s:\n%s", want, out.String())
		}
	}
}
