// Sensitivity walkthrough: how the headline resizing result moves with
// the knobs the paper fixes — subarray granularity and the dynamic
// controller's interval. Uses a two-app subset so it finishes quickly;
// `go run ./cmd/figures -exp sens` runs the full versions.
package main

import (
	"context"
	"fmt"
	"log"

	"resizecache/internal/experiment"
	"resizecache/internal/runner"
)

func main() {
	opts := experiment.DefaultOptions()
	opts.Instructions = 500_000
	opts.Apps = []string{"ammp", "vpr"}
	ctx := context.Background()
	r := runner.New(runner.Options{})

	rows, err := experiment.SubarraySensitivity(ctx, r, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiment.RenderSensitivity(
		"Subarray granularity (static selective-sets d-cache, ammp+vpr):", rows))
	fmt.Println("\nFiner subarrays offer smaller minimum sizes and more schedule")
	fmt.Println("points, so small-working-set apps keep gaining; coarser subarrays")
	fmt.Println("throw that opportunity away.")

	rows, err = experiment.IntervalSensitivity(ctx, r, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiment.RenderSensitivity(
		"Dynamic interval (in-order engine, d-cache, ammp+vpr):", rows))
	fmt.Println("\nShort intervals adapt fast but react to noise; long intervals")
	fmt.Println("stay oversized for whole program phases.")
}
