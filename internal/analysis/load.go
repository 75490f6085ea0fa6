package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader type-checks packages of one module plus their standard-library
// dependencies without any external tooling: module-local import paths
// resolve to directories under the module root and are parsed from
// source, everything else is delegated to the toolchain's source
// importer (which type-checks the standard library from GOROOT). The
// result is a fully typed Pass per package, built offline — no go/
// packages, no export data, no network.
//
// A Loader is safe for use from a single goroutine; the package cache
// makes repeated loads (e.g. one per analyzer) cheap.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string

	std  types.ImporterFrom
	pkgs map[string]*Package // by import path
}

// Package is one loaded, type-checked package.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds type-checker soft errors. Analysis runs on
	// best-effort information when they are non-empty; drivers surface
	// them so a broken tree fails loudly instead of silently passing.
	TypeErrors []error
}

// NewLoader returns a Loader rooted at the module containing dir: the
// nearest parent directory (including dir itself) holding a go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modpath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modpath = strings.TrimSpace(rest)
			break
		}
	}
	if modpath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: modpath,
		std:        std,
		pkgs:       make(map[string]*Package),
	}, nil
}

// ModuleRoot returns the absolute path of the module root directory.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// ModulePath returns the module's import path prefix.
func (l *Loader) ModulePath() string { return l.modulePath }

// ModulePackages returns the import paths of every package directory in
// the module, sorted: directories under the root that contain at least
// one non-test .go file, skipping testdata, hidden directories, vendor,
// and nested modules — the same set `go build ./...` would compile.
func (l *Loader) ModulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if path != l.moduleRoot {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module has its own ./...
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.moduleRoot, path)
				if err != nil {
					return err
				}
				ip := l.modulePath
				if rel != "." {
					ip = l.modulePath + "/" + filepath.ToSlash(rel)
				}
				out = append(out, ip)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Load type-checks the package with the given import path (module-local
// or standard library) and caches the result.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: import path %q is outside module %s", path, l.modulePath)
	}
	p, err := l.LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDir parses and type-checks the non-test .go files of one
// directory under the given import path. Used directly by test harness
// fixtures whose directories live outside the module package tree.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, TypesInfo: info}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	return pkg, nil
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loaderImporter adapts the Loader for go/types: module-local imports
// recurse through Load, anything else goes to the stdlib source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.stdImport(path)
}

// stdImport serializes stdlib imports through the source importer; the
// importer itself is not safe for concurrent use and Loader methods may
// be reached from tests running in parallel.
var stdMu sync.Mutex

func (l *Loader) stdImport(path string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return l.std.ImportFrom(path, l.moduleRoot, 0)
}
