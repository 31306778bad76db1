package rules

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

var fset = token.NewFileSet()

// A file is one parsed .go file.
type file struct {
	*ast.File
	name  string // relative to the module root
	lines int    // newlines, as wc -l counts them
}

// A pkg is one directory of the tree.
type pkg struct {
	dir   string  // relative to the module root, slash-separated
	files []*file // every non-test .go file, whatever its build tags
	tests []*file // the _test.go files go test compiles here, both packages
}

// A rule reads the packages a row selects and returns each violation.
type rule struct {
	what  string
	check func(ps []*pkg) []string
}

// load reads every directory under root except benchmark/ (its own module)
// and dot-directories (the go tool builds nothing there).
func load(root string) ([]*pkg, error) {
	var tree []*pkg
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "benchmark" || rel != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		pk, err := loadDir(root, rel)
		if pk != nil {
			tree = append(tree, pk)
		}
		return err
	})
	return tree, err
}

func loadDir(root, dir string) (*pkg, error) {
	abs := filepath.Join(root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parseFile(root, path.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	// The tests that count are the ones go test compiles, so go/build,
	// which applies build tags, picks their files.
	bp, err := build.Default.ImportDir(abs, 0)
	if _, none := err.(*build.NoGoError); none {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	for _, name := range slices.Concat(bp.TestGoFiles, bp.XTestGoFiles) {
		f, err := parseFile(root, path.Join(dir, name))
		if err != nil {
			return nil, err
		}
		p.tests = append(p.tests, f)
	}
	if p.files == nil && p.tests == nil {
		return nil, nil
	}
	return p, nil
}

func parseFile(root, name string) (*file, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(name)))
	if err != nil {
		return nil, err
	}
	return parseSrc(name, src)
}

func parseSrc(name string, src []byte) (*file, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &file{File: f, name: name, lines: bytes.Count(src, []byte{'\n'})}, nil
}

// parsePkg builds a package of one file and one test file from source,
// for TestRulesFire.
func parsePkg(dir, src, tests string) (*pkg, error) {
	p := &pkg{dir: dir}
	f, err := parseSrc(dir+"/x.go", []byte(src))
	if err != nil {
		return nil, err
	}
	p.files = []*file{f}
	if tests != "" {
		f, err := parseSrc(dir+"/x_test.go", []byte(tests))
		if err != nil {
			return nil, err
		}
		p.tests = []*file{f}
	}
	return p, nil
}

// match reports whether pattern pat ("x", "x/..." or "...") matches the
// slash-separated path s, a directory or an import path.
func match(pat, s string) bool {
	if pat == "..." {
		return true
	}
	if base, ok := strings.CutSuffix(pat, "/..."); ok {
		return s == base || strings.HasPrefix(s, base+"/")
	}
	return s == pat
}

// pick applies a row's patterns in order to the tree.
func pick(tree []*pkg, pats []string) []*pkg {
	var out []*pkg
	for _, p := range tree {
		var sel *pkg
		for _, pat := range pats {
			if neg, ok := strings.CutPrefix(pat, "!"); ok {
				if match(neg, p.dir) {
					sel = nil
				}
			} else if strings.HasSuffix(pat, ".go") {
				if i := slices.IndexFunc(p.files, func(f *file) bool { return f.name == pat }); i >= 0 {
					sel = &pkg{dir: p.dir, files: p.files[i : i+1]}
				}
			} else if match(pat, p.dir) {
				sel = p
			}
		}
		if sel != nil {
			out = append(out, sel)
		}
	}
	return out
}

func at(pos token.Pos, format string, args ...any) string {
	return fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...))
}

// eachFile returns the violations check finds in each non-test file of ps.
func eachFile(ps []*pkg, check func(f *file) []string) []string {
	var bad []string
	for _, p := range ps {
		for _, f := range p.files {
			bad = append(bad, check(f)...)
		}
	}
	return bad
}

// lines bounds the non-test lines of the selected files, counted as
// `find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l`
// counts them.
func lines(ceiling int) rule {
	return rule{fmt.Sprintf("hold at most %d non-test Go lines", ceiling), func(ps []*pkg) []string {
		n := 0
		for _, p := range ps {
			for _, f := range p.files {
				n += f.lines
			}
		}
		if n > ceiling {
			return []string{fmt.Sprintf("%d lines", n)}
		}
		return nil
	}}
}

// noImport forbids imports matching any of pats.
func noImport(pats ...string) rule {
	return rule{"import none of " + strings.Join(pats, ", "), func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) (bad []string) {
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if slices.ContainsFunc(pats, func(pat string) bool { return match(pat, p) }) {
					bad = append(bad, at(im.Pos(), "imports %s", p))
				}
			}
			return bad
		})
	}}
}

// noName forbids every identifier matching re, declared or used, called or
// not.
func noName(re string) rule {
	rx := regexp.MustCompile(re)
	return rule{"use no name matching " + re, func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) (bad []string) {
			ast.Inspect(f.File, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && rx.MatchString(id.Name) {
					bad = append(bad, at(id.Pos(), "%s", id.Name))
				}
				return true
			})
			return bad
		})
	}}
}

// atMost bounds the references to package-qualified names such as
// "time.NewTicker", whatever name the file imports the package under.
func atMost(n int, names ...string) rule {
	return rule{fmt.Sprintf("refer to %s at most %d times", strings.Join(names, " or "), n), func(ps []*pkg) []string {
		var seen []string
		for _, p := range ps {
			for _, f := range p.files {
				for _, name := range names {
					seen = append(seen, refs(f, name)...)
				}
			}
		}
		if len(seen) > n {
			return seen
		}
		return nil
	}}
}

// refs returns where f refers to the package-qualified name qual.
func refs(f *file, qual string) []string {
	i := strings.LastIndex(qual, ".")
	imp, member, local := qual[:i], qual[i+1:], ""
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == imp {
			local = path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
		}
	}
	var out []string
	ast.Inspect(f.File, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == member {
			if x, ok := s.X.(*ast.Ident); ok && x.Name == local {
				out = append(out, at(s.Pos(), "%s", qual))
			}
		}
		return true
	})
	return out
}

// noMethod forbids methods with the given names on typ or *typ.
func noMethod(typ string, names ...string) rule {
	return rule{fmt.Sprintf("declare no method %s on %s", strings.Join(names, " or "), typ), func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) (bad []string) {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && recvType(fd) == typ && slices.Contains(names, fd.Name.Name) {
					bad = append(bad, at(fd.Name.Pos(), "(%s).%s", typ, fd.Name.Name))
				}
			}
			return bad
		})
	}}
}

// recvType is the name of a method's receiver base type.
func recvType(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// notPackage forbids files of package name.
func notPackage(name string) rule {
	return rule{"hold no package " + name, func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) []string {
			if f.Name.Name == name {
				return []string{at(f.Name.Pos(), "package %s", name)}
			}
			return nil
		})
	}}
}

// fieldNames is a struct field's names; an embedded field's is its type's.
func fieldNames(fl *ast.Field) []string {
	if len(fl.Names) == 0 {
		t := fl.Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if s, ok := t.(*ast.SelectorExpr); ok {
			t = s.Sel
		}
		if id, ok := t.(*ast.Ident); ok {
			return []string{id.Name}
		}
		return nil
	}
	var out []string
	for _, n := range fl.Names {
		out = append(out, n.Name)
	}
	return out
}

// structs calls visit for every struct type in f: with typ "", anywhere;
// otherwise only the one declared as typ.
func structs(f *file, typ string, visit func(*ast.StructType)) {
	ast.Inspect(f.File, func(n ast.Node) bool {
		if typ != "" {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == typ {
				if st, ok := ts.Type.(*ast.StructType); ok {
					visit(st)
				}
			}
		} else if st, ok := n.(*ast.StructType); ok {
			visit(st)
		}
		return true
	})
}

// noField forbids fields, embedded ones included, with the given names in
// the struct type typ, or in every struct when typ is "".
func noField(typ string, names ...string) rule {
	in := "any struct"
	if typ != "" {
		in = typ
	}
	return rule{fmt.Sprintf("declare no field %s in %s", strings.Join(names, ", "), in), func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) (bad []string) {
			structs(f, typ, func(st *ast.StructType) {
				for _, fl := range st.Fields.List {
					for _, n := range fieldNames(fl) {
						if slices.Contains(names, n) {
							bad = append(bad, at(fl.Pos(), "field %s", n))
						}
					}
				}
			})
			return bad
		})
	}}
}

// noJSONField forbids struct fields that encode under any of keys: by
// their json tag, or untagged, by their name, which decoding matches
// without regard to case.
func noJSONField(keys ...string) rule {
	return rule{"declare no field encoded as " + strings.Join(keys, ", "), func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) (bad []string) {
			structs(f, "", func(st *ast.StructType) {
				for _, fl := range st.Fields.List {
					var names []string
					if fl.Tag != nil {
						tag, _ := strconv.Unquote(fl.Tag.Value)
						if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" {
							names = []string{name}
						}
					}
					if names == nil {
						for _, n := range fl.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
					for _, n := range names {
						if slices.ContainsFunc(keys, func(k string) bool { return strings.EqualFold(k, n) }) {
							bad = append(bad, at(fl.Pos(), "field encoded as %q", n))
						}
					}
				}
			})
			return bad
		})
	}}
}

// noAPIMention forbids words in the package's API: every exported name,
// the signatures of exported functions and of methods on exported types,
// exported fields and interface methods and their types, and the types and
// values of exported variables and constants.
func noAPIMention(words ...string) rule {
	return rule{"name none of " + strings.Join(words, ", ") + " in an exported name or signature", func(ps []*pkg) []string {
		return eachFile(ps, func(f *file) (bad []string) {
			flag := func(n ast.Node) {
				ast.Inspect(n, func(n ast.Node) bool {
					text := ""
					switch n := n.(type) {
					case *ast.Ident:
						text = n.Name
					case *ast.BasicLit:
						text = n.Value
					}
					if slices.ContainsFunc(words, func(w string) bool { return strings.Contains(text, w) }) {
						bad = append(bad, at(n.Pos(), "%s", text))
					}
					return true
				})
			}
			// fields flags the exported or embedded entries of a field list.
			fields := func(l *ast.FieldList) {
				for _, fl := range l.List {
					if len(fl.Names) == 0 || slices.ContainsFunc(fl.Names, (*ast.Ident).IsExported) {
						flag(fl)
					}
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvType(d))) {
						flag(d.Name)
						flag(d.Type)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							flag(s.Name)
							if s.TypeParams != nil {
								flag(s.TypeParams)
							}
							switch t := s.Type.(type) {
							case *ast.StructType:
								fields(t.Fields)
							case *ast.InterfaceType:
								fields(t.Methods)
							default:
								flag(t)
							}
						case *ast.ValueSpec:
							if slices.ContainsFunc(s.Names, (*ast.Ident).IsExported) {
								for _, n := range s.Names {
									flag(n)
								}
								if s.Type != nil {
									flag(s.Type)
								}
								for _, v := range s.Values {
									flag(v)
								}
							}
						}
					}
				}
			}
			return bad
		})
	}}
}

// tests requires each named Test, Benchmark or Fuzz function to be
// declared at the top level of the package's compiled test files. A Test
// may skip only under `if testing.Short()`, in its body or in any function
// of its package's tests that it names.
func tests(names ...string) rule {
	return rule{"declare its acceptance tests, each skipping only under testing.Short()", func(ps []*pkg) (bad []string) {
		for _, p := range ps {
			decls := map[string][]*ast.FuncDecl{}
			for _, f := range p.tests {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
					}
				}
			}
			for _, name := range names {
				i := slices.IndexFunc(decls[name], func(fd *ast.FuncDecl) bool { return fd.Recv == nil })
				if i < 0 {
					bad = append(bad, fmt.Sprintf("%s declares no %s", p.dir, name))
				} else if strings.HasPrefix(name, "Test") {
					for _, pos := range skips(decls[name][i], decls) {
						bad = append(bad, at(pos, "%s can skip outside if testing.Short()", name))
					}
				}
			}
		}
		return bad
	}}
}

// skips returns where fd, or a function of decls that it names, directly
// or through others, refers to Skip, Skipf or SkipNow outside the body of
// an `if testing.Short()`.
func skips(fd *ast.FuncDecl, decls map[string][]*ast.FuncDecl) []token.Pos {
	var out []token.Pos
	seen := map[*ast.FuncDecl]bool{fd: true}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if !isShort(n.Cond) {
					return true
				}
				// Only the guarded body may skip.
				if n.Init != nil {
					walk(n.Init)
				}
				if n.Else != nil {
					walk(n.Else)
				}
				return false
			case *ast.Ident:
				switch n.Name {
				case "Skip", "Skipf", "SkipNow":
					out = append(out, n.Pos())
				}
				for _, d := range decls[n.Name] {
					if !seen[d] && d.Body != nil {
						seen[d] = true
						walk(d.Body)
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)
	return out
}

// isShort reports whether e is the call testing.Short().
func isShort(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok || len(c.Args) != 0 {
		return false
	}
	s, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	return ok && x.Name == "testing" && s.Sel.Name == "Short"
}
