package dynagg_bench

// Documentation hygiene tests: the docs/ tree and README are part of
// the repo's contract, so their structural claims are enforced here —
// relative links must resolve, and the README must stay a quickstart
// (the deep material lives in docs/), and a Go comment that names a
// document must name one that exists. The gateway API reference has a
// stronger check still: internal/gateway's TestGatewayAPIDocExamples
// executes its documented payloads against the real handlers.

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles returns every markdown file the link check covers: the
// repo-root documents plus the whole docs/ tree.
func docFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, sub...)
	if len(sub) == 0 {
		t.Fatal("docs/ contains no markdown — the documentation tree is gone")
	}
	return files
}

// mdLinkRE matches inline markdown links [text](target).
var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve fails when any relative markdown link in the
// root documents or docs/ points at a file that does not exist —
// moving or renaming a document without fixing its referrers breaks
// the build, not the reader.
func TestDocsLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // drop fragment
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%s does not exist)", file, m[1], resolved)
			}
		}
	}
}

// TestREADMEStaysQuickstart pins the README split: the front page is a
// quickstart plus links into docs/, capped at half its pre-split
// length. Growing it past the cap means new material belongs in docs/.
func TestREADMEStaysQuickstart(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const maxLines = 198
	if n := strings.Count(string(raw), "\n"); n > maxLines {
		t.Errorf("README.md is %d lines, cap is %d — move the new material into docs/", n, maxLines)
	}
	for _, want := range []string{
		"docs/architecture.md", "docs/protocols.md",
		"docs/deployments.md", "docs/gateway-api.md",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("README.md no longer links %s", want)
		}
	}
}

// mdNameRE matches a markdown file name in free text, with any
// directory prefix: README.md, docs/protocols.md.
var mdNameRE = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// urlRE matches a URL, whose path is not a file of this repository.
var urlRE = regexp.MustCompile(`\S+://\S*`)

// TestGoCommentsNameExistingDocs fails when a // comment in a Go file
// outside bench/ names a markdown document that does not exist, either
// from the repository root or from the file's own directory. A comment
// that sends the reader to a missing document is a broken link the
// markdown link check cannot see. String literals are not comments and
// are not checked.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "bench" || name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		file := fset.AddFile(path, -1, len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT || !strings.HasPrefix(lit, "//") {
				continue
			}
			for _, name := range mdNameRE.FindAllString(urlRE.ReplaceAllString(lit, ""), -1) {
				if docExists(name) || docExists(filepath.Join(filepath.Dir(path), name)) {
					continue
				}
				t.Errorf("%s: comment names %s, which does not exist", fset.Position(pos), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func docExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
