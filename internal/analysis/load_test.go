package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestLoadSimPackage proves the offline loader can fully type-check a
// real module package (and, transitively, its stdlib imports via the
// source importer) — the capability every analyzer rests on.
func TestLoadSimPackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath() != "resizecache" {
		t.Fatalf("module path = %q, want resizecache", l.ModulePath())
	}
	pkg, err := l.Load("resizecache/internal/sim")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	obj := pkg.Types.Scope().Lookup("Config")
	if obj == nil {
		t.Fatalf("sim.Config not found in loaded package")
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatalf("sim.Config is %T, want struct", obj.Type().Underlying())
	}
	if st.NumFields() < 10 {
		t.Fatalf("sim.Config has %d fields, expected a full config struct", st.NumFields())
	}
}

func TestModulePackagesListsKnownPackages(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	want := map[string]bool{
		"resizecache":              false,
		"resizecache/internal/sim": false,
		"resizecache/cmd/simlint":  false,
	}
	for _, p := range pkgs {
		if _, ok := want[p]; ok {
			want[p] = true
		}
		// perfbench has its own go.mod, so `go build ./...` skips it.
		if strings.HasPrefix(p, "resizecache/perfbench") {
			t.Errorf("ModulePackages lists %s from a nested module", p)
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("ModulePackages missing %s (got %d packages)", p, len(pkgs))
		}
	}
}
