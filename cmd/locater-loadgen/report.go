package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// writeBenchJSON emits the machine-readable report for the CI artifact
// pipeline.
func writeBenchJSON(outDir, name string, v any) error {
	if outDir == "" {
		outDir = "."
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
