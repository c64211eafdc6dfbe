package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// lineErr matches the line prefix every yamlite parse error carries.
var lineErr = regexp.MustCompile(`^line ([0-9]+): `)

// FuzzYamlite feeds arbitrary documents to the spec reader: it must never
// panic, every error but the empty-document one must name a line of the
// document, and a document it accepts must encode as JSON, the form Load
// decodes the spec from.
func FuzzYamlite(f *testing.F) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.yaml"))
	if err != nil || len(specs) == 0 {
		f.Fatalf("no committed campaign specs to seed from (err %v)", err)
	}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{
		"f_low_hz: nan\n",
		"m: {f: 1e400, g: -inf}\n",
		"a:\n\tb: 1\n",
		"- - x\n  - y\n",
		"- a: 1\n  b:\n    - [2, {c: 'd'}]\n",
		"k: v # comment\n  - 1\n",
		"a:\nb:\n  c: ~\n",
		"-\n- \n",
		": x\n",
		"",
		"# only a comment\n",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := parseYamlite(data)
		if err != nil {
			msg := err.Error()
			if msg == "empty document" {
				return
			}
			m := lineErr.FindStringSubmatch(msg)
			if m == nil {
				t.Fatalf("error names no line: %v", err)
			}
			n, _ := strconv.Atoi(m[1])
			if lines := bytes.Count(data, []byte("\n")) + 1; n < 1 || n > lines {
				t.Fatalf("error names line %d of a %d-line document: %v", n, lines, err)
			}
			return
		}
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("accepted document does not encode as JSON: %v", err)
		}
	})
}
