package quantumdd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeeps lists the exported functions and methods under internal/
// that no program calls but that tests use to check other code, each
// with the reason it stays. A key is "pkg.Func", "pkg.Type.Method" or
// a whole package "pkg", with pkg the directory below internal/.
var exportKeeps = map[string]string{
	"linalg":                       "the dense oracle every DD result is checked against",
	"snapshot/faultfs":             "the fault-injecting file system of the spill and snapshot store tests",
	"cnum.NewTable":                "test seam: the reference and differential table tests build private tables",
	"dd.Pkg.AddV":                  "test entry of the addition kernel that MultMV and MultMM recurse through",
	"dd.Pkg.ApplyGateML":           "test entry of the left matrix gate kernel",
	"dd.Pkg.ApplyGateMR":           "test entry of the right matrix gate kernel",
	"dd.Pkg.CheckUnitVector":       "assertion helper of the dd and sim tests",
	"dd.Pkg.Fidelity":              "assertion helper of the dd and sim tests",
	"dd.Pkg.IsUnitaryDD":           "assertion helper of the matrix kernel tests",
	"dd.Pkg.KronM":                 "TestKronTerminalReplacement reproduces Ex. 8 / Fig. 3 with it",
	"obs/trace.Recorder.Emit":      "test seam: ring and step-trace tests record spans directly",
	"qc.Op.IsUnitary":              "the verify and web oracle tests pick the ops they replay densely with it",
	"sim.NoisyResult.IsPartial":    "assertion helper of the replica pool tests",
	"snapshot.Store.SetSleep":      "test seam: the store tests stub the retry back-off",
	"verify.SimulationCheck":       "the random-stimulus strategy that the circuit fuzz tests check",
	"web.Server.SetReadinessProbe": "test seam: health tests inject a failing probe",
	"web.Server.SpillStore":        "test seam: spill tests inspect the durable store",
	"web.Server.WatchdogEvents":    "test seam: telemetry, shape and health tests read the fired rules",
}

// interfaceMethods are called through a standard-library interface
// (fmt.Stringer, error, errors.Unwrap, http.Handler), never by name.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
}

// TestInternalExportsHaveCallers fails when an exported function or
// method declared in internal/ is referenced by name from no non-test
// file of the module (the perfbench module included) and is not on
// exportKeeps: code that only its own tests call is dead weight.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ pkg, key, name string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				own[fn.Name] = true
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{pkg, key, fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	kept := map[string]bool{}
	for _, d := range decls {
		switch {
		case exportKeeps[d.pkg] != "":
			kept[d.pkg] = true
		case exportKeeps[d.key] != "":
			kept[d.key] = true
		case !refs[d.name] && !interfaceMethods[d.name]:
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported functions under internal/ have no non-test caller; delete them with their tests, or add them to exportKeeps with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	for key := range exportKeeps {
		if !kept[key] {
			t.Errorf("exportKeeps names %s, which is not declared under internal/", key)
		}
	}
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
