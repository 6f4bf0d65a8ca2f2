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
		regexp.MustCompile(`^preloaded \d+ historical events; streaming \d+ live events for 2026-03-09\n`),
		regexp.MustCompile(`(?m)^final state: \d+ events`),
	} {
		if !want.Match(out.Bytes()) {
			t.Fatalf("output does not match %s:\n%s", want, out.String())
		}
	}
}
