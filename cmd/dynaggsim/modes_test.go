package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynagg/internal/supervise"
)

// modeFlags returns the names of every flag m's flag set defines.
func modeFlags(m mode) map[string]bool {
	fs, _ := flagSet(m)
	names := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// allFlags returns the union of every mode's flags.
func allFlags() map[string]bool {
	all := make(map[string]bool)
	for _, m := range modes {
		for name := range modeFlags(m) {
			all[name] = true
		}
	}
	return all
}

// TestModesRejectForeignFlags pins that a mode accepts only the flags
// it reads: every flag some other mode defines is refused by the flag
// package before any work is done, so no -o file appears.
func TestModesRejectForeignFlags(t *testing.T) {
	all := allFlags()
	dir := t.TempDir()
	pairs := 0
	for _, m := range modes {
		own := modeFlags(m)
		for name := range all {
			if own[name] {
				continue
			}
			pairs++
			out := filepath.Join(dir, m.name+"."+name)
			err := run([]string{m.name, "-o", out, "-" + name + "=1"})
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
				t.Errorf("%s -%s: err = %v, want the flag package's undefined-flag error", m.name, name, err)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s -%s: -o file created (stat err = %v)", m.name, name, err)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no mode lacks any other mode's flag; the table collapsed to one flag set")
	}
	t.Logf("%d (mode, foreign flag) pairs refused", pairs)
}

// TestRunRejectsOutOfRangeValues pins that a count of zero or less, or
// a negative loss rate, is refused rather than silently replaced by a
// default or ignored.
func TestRunRejectsOutOfRangeValues(t *testing.T) {
	for _, args := range [][]string{
		{"fig8", "-rounds", "0"},
		{"ablation-gridcutoff", "-n", "0"},
		{"ablation-bandwidth", "-n", "-5"},
		{"bench", "-n", "0"},
		{"bench", "-rounds", "-3"},
		{"live", "-n", "0"},
		{"live", "-ticks", "-1"},
		{"live", "-udp-groups", "0"},
		{"live", "-loss", "-0.5", "-n", "16", "-ticks", "1"},
		{"gateway", "-n", "0"},
		{"supervise", "-members", "0"},
		{"supervise", "-ticks", "0"},
		{"supervise", "-heartbeat", "-1s"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestModeHelpListsOwnFlags pins that `dynaggsim <mode> -h` prints that
// mode's flags and no others, and spot-checks defaults that differ
// between modes sharing a flag name.
func TestModeHelpListsOwnFlags(t *testing.T) {
	all := allFlags()
	for _, m := range modes {
		fs, _ := flagSet(m)
		var help bytes.Buffer
		fs.SetOutput(&help)
		if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: err = %v, want flag.ErrHelp", m.name, err)
		}
		own := modeFlags(m)
		for name := range all {
			listed := strings.Contains(help.String(), "\n  -"+name+" ") || strings.Contains(help.String(), "\n  -"+name+"\n")
			if listed != own[name] {
				t.Errorf("%s -h: flag -%s listed=%v, defined=%v", m.name, name, listed, own[name])
			}
		}
	}
	for _, tc := range []struct{ mode, flag, def string }{
		{"live", "ticks", "60"},
		{"supervise", "ticks", "300"},
		{"bench", "n", "1000000"},
		{"live", "n", "256"},
		{"ablation-gridcutoff", "n", "28"},
		{"ablation-bandwidth", "n", "2000"},
		{"fig8", "rounds", "60"},
	} {
		fs, _ := flagSet(modes[slices.IndexFunc(modes, func(m mode) bool { return m.name == tc.mode })])
		if f := fs.Lookup(tc.flag); f == nil || f.DefValue != tc.def {
			t.Errorf("%s -%s: default %v, want %s", tc.mode, tc.flag, f, tc.def)
		}
	}
}

// TestAllHonoursFormat pins that all writes every result in the
// requested format: -format json is a stream of one JSON result per
// figure and ablation, -format csv parses as CSV with no tab-separated
// table mixed in.
func TestAllHonoursFormat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every figure and ablation experiment")
	}
	figures := 0
	for _, m := range modes {
		if m.fig != nil {
			figures++
		}
	}
	dir := t.TempDir()
	out := func(format string) []byte {
		path := filepath.Join(dir, "all."+format)
		if err := run([]string{"all", "-n", "200", "-rounds", "5", "-format", format, "-o", path}); err != nil {
			t.Fatalf("all -format %s: %v", format, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	dec := json.NewDecoder(bytes.NewReader(out("json")))
	results := 0
	for {
		var r struct{ Name string }
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("json result %d: %v", results, err)
		}
		if r.Name == "" {
			t.Errorf("json result %d has no name", results)
		}
		results++
	}
	if results != figures || figures != 17 {
		t.Errorf("all -format json: %d results from %d figure modes, want 17", results, figures)
	}

	cr := csv.NewReader(bytes.NewReader(out("csv")))
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("all -format csv: %v", err)
	}
	if len(records) < figures {
		t.Errorf("all -format csv: %d records, want at least one header per figure", len(records))
	}
	for i, rec := range records {
		for _, field := range rec {
			if strings.Contains(field, "\t") {
				t.Fatalf("all -format csv: record %d holds a tab: %q", i, rec)
			}
		}
	}
}

// TestDocumentedInvocationsParse parses, without running, every
// `dynaggsim <mode> …` command line the README, docs/ and the Makefile
// show, and the argv the supervise mode gives its members, against the
// mode's flag set — so a renamed mode or flag, or one used outside the
// mode that reads it, fails here instead of in a reader's terminal.
func TestDocumentedInvocationsParse(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	var lines []docLine
	for _, file := range append([]string{"../../README.md"}, docs...) {
		lines = append(lines, markdownCode(t, file)...)
	}
	lines = append(lines, makefileRecipes(t, "../../Makefile")...)
	found := 0
	for _, l := range lines {
		for _, args := range invocations(l.text) {
			found++
			if _, err := parse(args); err != nil && !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%s: dynaggsim %s: %v", l.where, strings.Join(args, " "), err)
			}
		}
	}
	if found < 20 {
		t.Errorf("found %d documented invocations; the extractor has stopped seeing them", found)
	}

	o := superviseOpts{n: 64, members: 2, protocol: "pushsum", ticks: 300,
		pace: 20 * time.Millisecond, heartbeat: 250 * time.Millisecond, seed: 1}
	for incarnation := range 2 {
		args := memberArgs(o, supervise.Member{Name: "m0", Lo: 0, Hi: 32}, "127.0.0.1:1", incarnation)
		if _, err := parse(args); err != nil {
			t.Errorf("supervise member argv %v: %v", args, err)
		}
	}
}

// docLine is one shell command line from a document, continuations
// joined.
type docLine struct {
	where, text string
}

// codeSpanRE matches an inline markdown code span.
var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// markdownCode returns the fenced code lines and inline code spans of
// a markdown file.
func markdownCode(t *testing.T, file string) []docLine {
	t.Helper()
	var out []docLine
	fenced, pending := false, ""
	for i, line := range readLines(t, file) {
		where := file + ":" + strconv.Itoa(i+1)
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				out = append(out, docLine{where, m[1]})
			}
			continue
		}
		if cont, ok := strings.CutSuffix(line, `\`); ok {
			pending += cont + " "
			continue
		}
		out = append(out, docLine{where, pending + line})
		pending = ""
	}
	return out
}

// makefileRecipes returns the Makefile's recipe lines, continuations
// joined.
func makefileRecipes(t *testing.T, file string) []docLine {
	t.Helper()
	var out []docLine
	pending := ""
	for i, line := range readLines(t, file) {
		if pending == "" && !strings.HasPrefix(line, "\t") {
			continue
		}
		if cont, ok := strings.CutSuffix(line, `\`); ok {
			pending += cont + " "
			continue
		}
		out = append(out, docLine{file + ":" + strconv.Itoa(i+1), pending + line})
		pending = ""
	}
	return out
}

// modeNameRE matches what can be a mode name (not a flag or a
// <placeholder>).
var modeNameRE = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// invocations returns the argv, mode first, of every dynaggsim command
// in a shell line — however it is invoked (`dynaggsim`, `$ go run
// ./cmd/dynaggsim`, `go run -race ./cmd/dynaggsim`, a built binary's
// path). The line is cut at its comment and split into commands at the
// shell operators `;`, `&&`, `||`, `&` and `|`; each argv ends at the
// command's first redirection.
func invocations(line string) [][]string {
	fields := strings.Fields(line)
	if i := slices.IndexFunc(fields, func(f string) bool { return strings.HasPrefix(f, "#") }); i >= 0 {
		fields = fields[:i]
	}
	isOperator := func(r rune) bool { return strings.ContainsRune(";&|", r) }
	isRedirect := func(a string) bool { return strings.ContainsAny(a[:1], "<>") || strings.HasPrefix(a, "2>") }
	var out [][]string
	for _, cmd := range strings.FieldsFunc(strings.Join(fields, " "), isOperator) {
		words := strings.Fields(cmd)
		for i, w := range words {
			if path.Base(w) != "dynaggsim" || i+1 == len(words) || !modeNameRE.MatchString(words[i+1]) {
				continue
			}
			args := words[i+1:]
			if end := slices.IndexFunc(args, isRedirect); end >= 0 {
				args = args[:end]
			}
			out = append(out, args)
			break
		}
	}
	return out
}

func readLines(t *testing.T, file string) []string {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(raw), "\n")
}
