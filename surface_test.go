package autoglobe_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The surface check: every exported name in internal/ earns a caller
// outside tests, and every exported field of an exported struct there
// is set and read by someone. SURFACE.txt lists what does not, one
// "class kind pkg.Name[.Member]" line each, sorted. A name's class is
// the widest reach of the non-test code that uses it:
//
//	prod      cmd/ or another internal/ package (never listed)
//	bench     bench/
//	examples  examples/
//	self      its own package only
//	none      nothing but tests
//
// A field no non-test code writes is listed as "unset field". A write
// is a keyed or unkeyed composite literal, an assignment, ++/--, or
// &x.F; a struct with json: or xml: tags is written by its decoder.
// A written field no non-test code reads is listed as "unread field".
// A read is any selection of the field — a promoted access reads every
// field on its path — except as the left side of a plain = assignment
// (so x.F += v, x.F++ and &x.F read it); a struct with json: or xml:
// tags is read by its encoder.
// A method counts as used wherever its type is when the type needs it
// to satisfy an interface declared in the module or in a standard
// package the module imports (error, fmt.Stringer, wire.Transport, …),
// and so does each member of an iota enum.
//
// The test fails when a line joins the file; lines may leave it
// freely. To rewrite the file after a deliberate change:
//
//	SURFACE_UPDATE=1 go test -run '^TestSurface$' .
func TestSurface(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checking the tree takes ~5x longer under -race and exercises no concurrency")
	}
	got := surface(t, ".")
	const file = "SURFACE.txt"
	if os.Getenv("SURFACE_UPDATE") == "1" {
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten: %d lines", file, len(got))
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		listed[line] = true
	}
	var joined []string
	for _, line := range got {
		if !listed[line] {
			joined = append(joined, line)
		}
	}
	if len(joined) > 0 {
		t.Errorf("%d new %s lines: give each name a non-test caller outside its package, "+
			"set and read the field, or delete it (SURFACE_UPDATE=1 rewrites the file if the change is deliberate):\n%s",
			len(joined), file, strings.Join(joined, "\n"))
	}
	if left := len(listed) + len(joined) - len(got); left > 0 {
		t.Logf("%d %s lines no longer apply; SURFACE_UPDATE=1 drops them", left, file)
	}
}

// TestSurfaceFixture pins one classification per rule on a small module
// in testdata/surface.
func TestSurfaceFixture(t *testing.T) {
	want := []string{
		"bench func lib.ForBench",
		"examples func lib.ForExamples",
		"none func lib.TestOnly",
		"none func lib.Unused",
		"none method lib.Mode.Unused",
		"self func lib.Helper",
		"unread field lib.Opts.Unread",
		"unset field lib.Opts.Unset",
	}
	if got := surface(t, "testdata/surface"); !slices.Equal(got, want) {
		t.Errorf("fixture surface:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// Classes in increasing reach.
const (
	classNone = iota
	classSelf
	classExamples
	classBench
	classProd
)

var className = [...]string{"none", "self", "examples", "bench", "prod"}

type surfacePkg struct {
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// surfaceLoader type-checks each package of the module once, so that an
// object is the same *types.Object in every package that uses it; the
// standard library comes from source.
type surfaceLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*surfacePkg
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load checks the package in directory rel, or returns nil for a
// directory without non-test Go files.
func (l *surfaceLoader) load(rel string) (*surfacePkg, error) {
	path := strings.TrimSuffix(l.module+"/"+rel, "/")
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(l.root, rel), 0)
	if _, empty := err.(*build.NoGoError); empty {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &surfacePkg{rel: rel, info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// surface loads the module at root and returns its sorted SURFACE.txt
// lines.
func surface(t *testing.T, root string) []string {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	// The pure-Go variants of net and os/user: no C toolchain needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &surfaceLoader{root: root, module: module, fset: fset,
		std: importer.ForCompiler(fset, "source", nil), pkgs: make(map[string]*surfacePkg)}
	var pkgs []*surfacePkg
	for _, top := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, dir)
			p, err := l.load(filepath.ToSlash(rel))
			if p != nil {
				pkgs = append(pkgs, p)
			}
			return err
		})
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return classify(pkgs)
}

type surfaceName struct {
	kind, name string
	home       *surfacePkg
	class      int
	owner      *types.TypeName // a method's, field's or enum member's type
	written    bool            // fields only
	read       bool            // fields only
}

func classify(pkgs []*surfacePkg) []string {
	names := make(map[types.Object]*surfaceName)
	typeOf := make(map[*types.TypeName][]*surfaceName) // a type's methods, fields and enum members
	// In play: every interface the module declares or can see in a
	// standard package it imports, by method name.
	ifaces := map[string][]*types.Interface{"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
	seen := make(map[*types.Package]bool)
	addIfaces := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		addIfaces(p.pkg)
		for _, imp := range p.pkg.Imports() {
			addIfaces(imp)
		}
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		pkgName := strings.TrimPrefix(p.rel, "internal/")
		scope := p.pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			names[obj] = &surfaceName{kind: objKind(obj), name: pkgName + "." + n, home: p}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			member := func(kind string, m types.Object) {
				sn := &surfaceName{kind: kind, name: pkgName + "." + n + "." + m.Name(), home: p, owner: tn}
				names[m] = sn
				typeOf[tn] = append(typeOf[tn], sn)
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						member("method", m)
					}
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				tagged := false
				for i := 0; i < st.NumFields(); i++ {
					tag := reflect.StructTag(st.Tag(i))
					_, j := tag.Lookup("json")
					_, x := tag.Lookup("xml")
					tagged = tagged || j || x
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						member("field", f)
						names[f].written, names[f].read = tagged, tagged
					}
				}
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST && usesIota(p.info, gd) {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							c, _ := scope.Lookup(id.Name).(*types.Const)
							if c == nil || names[c] == nil {
								continue
							}
							if named, ok := c.Type().(*types.Named); ok && names[named.Obj()] != nil {
								names[c].owner = named.Obj()
								typeOf[named.Obj()] = append(typeOf[named.Obj()], names[c])
							}
						}
					}
				}
			}
		}
	}

	origin := func(obj types.Object) types.Object {
		switch o := obj.(type) {
		case *types.Func:
			return o.Origin()
		case *types.Var:
			return o.Origin()
		}
		return obj
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if sn := names[origin(obj)]; sn != nil {
				sn.class = max(sn.class, useClass(p, sn.home))
			}
		}
		write := func(obj types.Object) {
			if sn := names[origin(obj)]; sn != nil {
				sn.written = true
			}
		}
		read := func(obj types.Object) {
			if sn := names[origin(obj)]; sn != nil {
				sn.read = true
			}
		}
		// assigned holds the selectors on the left of a plain =, the
		// one place a field selection is not a read; Inspect visits an
		// assignment before its operands.
		assigned := make(map[*ast.SelectorExpr]bool)
		var lhs func(e ast.Expr)
		lhs = func(e ast.Expr) {
			se, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			sel := p.info.Selections[se]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			// Every field on the path, promoted ones included.
			t := sel.Recv()
			for _, i := range sel.Index() {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				f := t.Underlying().(*types.Struct).Field(i)
				write(f)
				t = f.Type()
			}
			// a.B.C = v writes a.B too, unless B is a pointer.
			if _, ptr := p.info.Types[se.X].Type.Underlying().(*types.Pointer); !ptr {
				lhs(se.X)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem() // an elided &T{…} in a []*T literal
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							write(p.info.Uses[kv.Key.(*ast.Ident)])
						} else {
							write(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
						if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && n.Tok == token.ASSIGN {
							assigned[se] = true
						}
					}
				case *ast.SelectorExpr:
					sel := p.info.Selections[n]
					if sel == nil {
						break // a qualified identifier
					}
					// The fields on the path; a method's last index is
					// the method, and an assigned field's is written.
					path := sel.Index()
					if sel.Kind() != types.FieldVal || assigned[n] {
						path = path[:len(path)-1]
					}
					t := sel.Recv()
					for _, i := range path {
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						f := t.Underlying().(*types.Struct).Field(i)
						read(f)
						t = f.Type()
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(n.X)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						lhs(n.Key)
						if n.Value != nil {
							lhs(n.Value)
						}
					}
				}
				return true
			})
		}
	}

	// A type is used wherever its members are; an enum member, and a
	// method an interface needs, wherever its type is.
	for tn, members := range typeOf {
		for _, m := range members {
			names[tn].class = max(names[tn].class, m.class)
		}
	}
	for obj, sn := range names {
		if sn.kind == "const" && sn.owner != nil || sn.kind == "method" && satisfies(obj.Name(), sn.owner, ifaces) {
			sn.class = max(sn.class, names[sn.owner].class)
		}
	}

	var lines []string
	for _, sn := range names {
		switch {
		case sn.kind == "field" && !sn.written:
			lines = append(lines, "unset field "+sn.name)
		case sn.kind == "field" && !sn.read:
			lines = append(lines, "unread field "+sn.name)
		case sn.kind != "field" && sn.class < classProd:
			lines = append(lines, fmt.Sprintf("%s %s %s", className[sn.class], sn.kind, sn.name))
		}
	}
	slices.Sort(lines)
	return lines
}

// satisfies reports whether tn needs its method name to implement one of
// the interfaces in play.
func satisfies(name string, tn *types.TypeName, ifaces map[string][]*types.Interface) bool {
	named := tn.Type().(*types.Named)
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[name] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// useClass is the class a use in package user gives a name declared in
// home.
func useClass(user, home *surfacePkg) int {
	under := func(top string) bool { return user.rel == top || strings.HasPrefix(user.rel, top+"/") }
	switch {
	case user == home:
		return classSelf
	case under("cmd") || under("internal"):
		return classProd
	case under("bench"):
		return classBench
	default:
		return classExamples
	}
}

func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// usesIota reports whether a const block is an iota enum.
func usesIota(info *types.Info, gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}
