//go:build ignore

// Deadcode fails when production code is reached only from tests. It
// builds the two binaries — cmd/obfuscade and the bench/ harness — with
// inlining off, so every function they call keeps a symbol, and reads
// their symbol tables with `go tool nm`. Every top-level function or
// method declared in a non-test file outside bench/ whose symbol is in
// neither of them must be on the allow-list, scripts/deadcode.allow, and
// every allow-list entry must still be declared and still be linked by
// no binary.
//
// An allow-list entry is a function key (internal/mesh.BoxShell,
// internal/mesh.TopologyReport.Watertight) and its reason, one of
//
//	marker <interface>   an unexported method that seals the interface
//	via <key>            called by the allow-listed function <key>
//	<test files...>      tests in other packages that call it
//
// Go cannot share test code across packages, so a function that another
// package's tests call has to stay in a production file. Each named test
// file must lie outside the function's package and mention its name (a
// String method: its type, as fmt calls it); a via target must mention
// it too. Lines that start with white space continue the entry above.
//
// Usage, from the repository root: go run scripts/deadcode.go (make deadcode).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowFile = "scripts/deadcode.allow"

// binaries are the package directories of the two main packages.
var binaries = []string{"cmd/obfuscade", "bench"}

type decl struct {
	pos  string // file:line of the func keyword
	recv string // receiver type name, "" for a function
	src  string // source text, doc comment included
}

func main() {
	linked, declared, allow := linkedFuncs(), declaredFuncs(), readAllow()
	var bad []string
	unreached := 0
	for _, key := range sorted(declared) {
		if d := declared[key]; !linked[key] {
			unreached++
			if allow[key] == nil {
				bad = append(bad, fmt.Sprintf("%s: %s (%d lines) is linked by no binary: delete it, move it into a _test.go file, or allow-list it",
					d.pos, key, strings.Count(d.src, "\n")+1))
			}
		}
	}
	for _, key := range sorted(allow) {
		if msg := checkEntry(key, allow, declared, linked); msg != "" {
			bad = append(bad, fmt.Sprintf("%s: entry %s: %s", allowFile, key, msg))
		}
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		fail(fmt.Errorf("FAIL: %d problem(s)", len(bad)))
	}
	fmt.Printf("deadcode: OK: %d functions, %d linked by no binary, all on the %d-entry allow-list\n",
		len(declared), unreached, len(allow))
}

// linkedFuncs builds each binary with inlining off and returns the keys
// of the functions whose symbols any of them holds.
func linkedFuncs() map[string]bool {
	dir := must(os.MkdirTemp("", "deadcode"))
	defer os.RemoveAll(dir)
	linked := map[string]bool{}
	for _, pkg := range binaries {
		bin := filepath.Join(dir, filepath.Base(pkg))
		goCmd("-C", pkg, "build", "-gcflags=all=-l", "-o", bin, ".")
		for _, line := range strings.Split(goCmd("tool", "nm", bin), "\n") {
			// "addr type name": a generic instantiation's name has
			// spaces inside its brackets, so keep all after the type.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := f[2]
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = "obfuscade/" + pkg + "." + rest
			}
			if key, ok := strings.CutPrefix(normalise(sym), "obfuscade/"); ok {
				linked[key] = true
			}
		}
	}
	return linked
}

var (
	brackets = regexp.MustCompile(`\[[^\[\]]*\]`)
	closure  = regexp.MustCompile(`(\.(func|deferwrap|gowrap)?[0-9]+|-fm)+$`)
	pointer  = regexp.MustCompile(`\(\*([^)]*)\)`)
)

// normalise maps a symbol to the key of the function it belongs to by
// dropping instantiation brackets, closure suffixes and pointer
// receivers.
func normalise(sym string) string {
	for brackets.MatchString(sym) {
		sym = brackets.ReplaceAllString(sym, "")
	}
	return pointer.ReplaceAllString(closure.ReplaceAllString(sym, ""), "$1")
}

// declaredFuncs parses the non-test files of every package in the root
// module (go list skips the nested bench/ module and applies build
// constraints) and returns each top-level function and method by key.
func declaredFuncs() map[string]decl {
	root := must(os.Getwd())
	fset := token.NewFileSet()
	declared := map[string]decl{}
	for _, line := range strings.Fields(goCmd("list", "-f", `{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}} {{end}}`, "./...")) {
		path := must(filepath.Rel(root, line))
		src := must(os.ReadFile(path))
		f := must(parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			k := decl{pos: fmt.Sprintf("%s:%d", path, fset.Position(fn.Pos()).Line)}
			if fn.Recv != nil {
				k.recv = recvName(fn.Recv.List[0].Type)
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			k.src = string(src[fset.Position(start).Offset:fset.Position(fn.End()).Offset])
			key := filepath.Dir(path) + "." + fn.Name.Name
			if k.recv != "" {
				key = filepath.Dir(path) + "." + k.recv + "." + fn.Name.Name
			}
			declared[key] = k
		}
	}
	return declared
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	panic(fmt.Sprintf("unexpected receiver %T", t))
}

// readAllow returns each allow-list key with the fields of its reason.
func readAllow() map[string][]string {
	allow := map[string][]string{}
	key := ""
	for i, line := range strings.Split(string(must(os.ReadFile(allowFile))), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case line[0] == ' ' || line[0] == '\t':
			allow[key] = append(allow[key], f...)
		case allow[f[0]] != nil:
			fail(fmt.Errorf("%s:%d: duplicate entry %s", allowFile, i+1, f[0]))
		default:
			key = f[0]
			allow[key] = f[1:]
		}
	}
	return allow
}

// checkEntry returns what is wrong with an allow-list entry, or "".
func checkEntry(key string, allow map[string][]string, declared map[string]decl, linked map[string]bool) string {
	d, reason := declared[key], allow[key]
	switch {
	case d.pos == "":
		return "stale: no such function"
	case linked[key]:
		return "stale: a binary links it"
	case len(reason) < 2 && (len(reason) == 0 || reason[0] == "marker" || reason[0] == "via"):
		return "no reason given"
	case reason[0] == "marker":
		return ""
	case reason[0] == "via":
		if allow[reason[1]] == nil {
			return reason[1] + " is not on the allow-list"
		}
		return mention(declared[reason[1]].src, key, d.recv, "the source of "+reason[1])
	}
	dir := filepath.Dir(strings.SplitN(d.pos, ":", 2)[0])
	for _, file := range reason {
		if !strings.HasSuffix(file, "_test.go") || filepath.Dir(file) == dir {
			return file + " is not a test file in another package"
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err.Error()
		}
		if msg := mention(string(src), key, d.recv, file); msg != "" {
			return msg
		}
	}
	return ""
}

// mention checks that src names the function, or for a String method its
// receiver type.
func mention(src, key, recv, where string) string {
	name := key[strings.LastIndex(key, ".")+1:]
	if name == "String" && recv != "" {
		name = recv
	}
	if !regexp.MustCompile(`\b` + name + `\b`).MatchString(src) {
		return where + " does not mention " + name
	}
	return ""
}

func goCmd(args ...string) string {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fail(fmt.Errorf("go %s: %w", strings.Join(args, " "), err))
	}
	return string(out)
}

func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func must[T any](v T, err error) T {
	if err != nil {
		fail(err)
	}
	return v
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	os.Exit(2)
}
