//go:build e2e

package e2e

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// helpFlag matches one flag line of the flag package's -h listing.
var helpFlag = regexp.MustCompile(`^  -([A-Za-z0-9-]+)`)

// docFlag matches a backticked flag name in a table's first column.
var docFlag = regexp.MustCompile("`-([A-Za-z0-9-]+)`")

// helpFlags runs bin -h and returns the flag names it prints.
func helpFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", filepath.Base(bin), err, out)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if m := helpFlag.FindStringSubmatch(line); m != nil {
			flags[m[1]] = true
		}
	}
	return flags
}

// flagTables reads docs/OPERATIONS.md's flag inventory: for each
// "### <binary>" section, the flags named in its table's first column.
func flagTables(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	f, err := os.Open(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := map[string]map[string]bool{}
	var section string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
			section = strings.TrimSpace(strings.TrimLeft(line, "#"))
		case strings.HasPrefix(line, "| `-"):
			first := strings.Split(line, "|")[1]
			if tables[section] == nil {
				tables[section] = map[string]bool{}
			}
			for _, m := range docFlag.FindAllStringSubmatch(first, -1) {
				tables[section][m[1]] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tables
}

// docCommand is one shell command quoted in a markdown code block,
// with the "# → ..." lines that follow it: text its output must
// contain.
type docCommand struct {
	where  string
	script string
	expect []string
}

// explainCommands collects the `go run ./cmd/mdqrun ... -explain`
// commands quoted in a markdown file, with their backslash-continued
// lines and the lines of a multi-line double-quoted argument.
func explainCommands(t *testing.T, root, name string) []docCommand {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var cmds []docCommand
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "go run ./cmd/mdqrun ") {
			continue
		}
		c := docCommand{where: fmt.Sprintf("%s:%d", name, i+1)}
		for ; i < len(lines); i++ {
			c.script += lines[i] + "\n"
			openQuote := (strings.Count(c.script, `"`)-strings.Count(c.script, `\"`))%2 == 1
			if !openQuote && !strings.HasSuffix(lines[i], `\`) {
				break
			}
		}
		for i+1 < len(lines) && strings.HasPrefix(lines[i+1], "# ") {
			i++
			if want, ok := strings.CutPrefix(lines[i], "# → "); ok {
				c.expect = append(c.expect, want)
			}
		}
		if strings.Contains(c.script, " -explain") {
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// TestFlagInventoryAndExplain keeps the operator-facing surface honest.
// Every flag mdqserve, mdqworker and mdqrun print under -h has a row in
// that binary's docs/OPERATIONS.md table, and every flag a table names
// exists. Then every `mdqrun -explain` command README.md and
// ARCHITECTURE.md quote runs, exits 0 and prints the lines their
// "# → " comments promise (the travel template's one search for three
// bindings among them).
func TestFlagInventoryAndExplain(t *testing.T) {
	dir := t.TempDir()
	serveBin, workerBin, runBin := buildBinaries(t, dir)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}

	tables := flagTables(t, root)
	for name, bin := range map[string]string{"mdqserve": serveBin, "mdqworker": workerBin, "mdqrun": runBin} {
		have, doc := helpFlags(t, bin), tables[name]
		if len(doc) == 0 {
			t.Errorf("docs/OPERATIONS.md has no flag table for %s", name)
		}
		for f := range have {
			if !doc[f] {
				t.Errorf("%s has -%s, which its docs/OPERATIONS.md table lacks", name, f)
			}
		}
		for f := range doc {
			if !have[f] {
				t.Errorf("docs/OPERATIONS.md's %s table names -%s, which %s does not have", name, f, name)
			}
		}
	}

	var cmds []docCommand
	for _, name := range []string{"README.md", "ARCHITECTURE.md"} {
		cmds = append(cmds, explainCommands(t, root, name)...)
	}
	if len(cmds) == 0 {
		t.Fatal("README.md and ARCHITECTURE.md quote no mdqrun -explain command")
	}
	for _, c := range cmds {
		script := strings.Replace(c.script, "go run ./cmd/mdqrun", runBin, 1)
		out, err := exec.Command("sh", "-c", script).CombinedOutput()
		if err != nil {
			t.Errorf("%s: %v\n%s\n%s", c.where, err, c.script, out)
			continue
		}
		for _, want := range c.expect {
			if !strings.Contains(string(out), want) {
				t.Errorf("%s: output lacks %q\n%s", c.where, want, out)
			}
		}
	}
}
