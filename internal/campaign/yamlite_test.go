package campaign

import (
	"reflect"
	"strings"
	"testing"
)

func TestYamliteCampaignShape(t *testing.T) {
	doc := `
# A campaign spec in the shapes Load feeds through yamlite.
version: 1
name: demo
seed: 7
quick: true
budget:
  global_evals: 120
  polish_evals: 60
axes:
  bands:
    - name: l1
      f_low_hz: 1.559e9
      f_high_hz: 1.61e9
      points: 3
    - {name: l5, f_low_hz: 1.164e9, f_high_hz: 1.189e9}
  specs:
    - name: tight
      nf_max_db: 0.9
      gt_min_db: 14
      s11_max_db: -10
      s22_max_db: -10
      pdc_max_w: 0.25
  substrates: [ro4350, fr4]
  algorithms:
    - attain
  seeds: [1, 2] # two repeats
`
	v, err := parseYamlite([]byte(doc))
	if err != nil {
		t.Fatalf("parseYamlite: %v", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("top level is %T, want map", v)
	}
	if m["version"] != int64(1) || m["name"] != "demo" || m["quick"] != true {
		t.Fatalf("scalars wrong: %v", m)
	}
	budget := m["budget"].(map[string]any)
	if budget["global_evals"] != int64(120) {
		t.Fatalf("nested map wrong: %v", budget)
	}
	axes := m["axes"].(map[string]any)
	bands := axes["bands"].([]any)
	if len(bands) != 2 {
		t.Fatalf("bands: %v", bands)
	}
	b0 := bands[0].(map[string]any)
	if b0["name"] != "l1" || b0["f_low_hz"] != 1.559e9 || b0["points"] != int64(3) {
		t.Fatalf("block list-of-maps item wrong: %v", b0)
	}
	b1 := bands[1].(map[string]any)
	if b1["name"] != "l5" || b1["f_high_hz"] != 1.189e9 {
		t.Fatalf("flow map item wrong: %v", b1)
	}
	if got := axes["substrates"]; !reflect.DeepEqual(got, []any{"ro4350", "fr4"}) {
		t.Fatalf("flow list wrong: %v", got)
	}
	if got := axes["algorithms"]; !reflect.DeepEqual(got, []any{"attain"}) {
		t.Fatalf("block list wrong: %v", got)
	}
	if got := axes["seeds"]; !reflect.DeepEqual(got, []any{int64(1), int64(2)}) {
		t.Fatalf("trailing-comment flow list wrong: %v", got)
	}
}

func TestYamliteScalars(t *testing.T) {
	doc := `
b_true: true
b_false: false
n: null
tilde: ~
i: -42
f: 2.5
e: 1.15e9
s: hello world
q: "quoted: with colon"
sq: 'single'
c: 3 # trailing comment
`
	v, err := parseYamlite([]byte(doc))
	if err != nil {
		t.Fatalf("parseYamlite: %v", err)
	}
	m := v.(map[string]any)
	want := map[string]any{
		"b_true": true, "b_false": false, "n": nil, "tilde": nil,
		"i": int64(-42), "f": 2.5, "e": 1.15e9,
		"s": "hello world", "q": "quoted: with colon", "sq": "single",
		"c": int64(3),
	}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("got %v, want %v", m, want)
	}
}

func TestYamliteNestedListItemBlocks(t *testing.T) {
	doc := `
items:
  - name: a
    inner:
      x: 1
      y: [2, 3]
  - name: b
`
	v, err := parseYamlite([]byte(doc))
	if err != nil {
		t.Fatalf("parseYamlite: %v", err)
	}
	items := v.(map[string]any)["items"].([]any)
	a := items[0].(map[string]any)
	inner := a["inner"].(map[string]any)
	if inner["x"] != int64(1) || !reflect.DeepEqual(inner["y"], []any{int64(2), int64(3)}) {
		t.Fatalf("nested block inside list item wrong: %v", inner)
	}
	if items[1].(map[string]any)["name"] != "b" {
		t.Fatalf("second item wrong: %v", items[1])
	}
}

func TestYamliteErrors(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"tabs", "a:\n\tb: 1\n", "tabs are not allowed"},
		{"dup key", "a: 1\na: 2\n", "duplicate key"},
		{"dup flow key", "m: {a: 1, a: 2}\n", "duplicate key"},
		{"empty", "# only a comment\n", "empty document"},
		{"bad flow", "l: [1, 2\n", "unterminated flow list"},
		{"bad map", "m: {a: 1\n", "unterminated flow map"},
		{"unterminated string", `s: "oops` + "\n", "unterminated string"},
		{"garbage", "x: 1} trailing\n", "trailing garbage"},
		{"list in map", "a: 1\n- item\n", "list item inside a map block"},
		{"quoted key", `"k": 1` + "\n", "quoted keys are not supported"},
		{"nan", "f_low_hz: nan\n", `line 1: "nan" is not a finite number`},
		{"infinity", "a: 1\nb: [1, -Infinity]\n", `line 2: "-Infinity" is not a finite number`},
		{"overflow", "m: {f: 1e400}\n", `line 1: "1e400" is not a finite number`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYamlite([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestYamliteErrorsCarryLineNumbers(t *testing.T) {
	doc := "a: 1\n\n# comment\nb: {x: }\n"
	_, err := parseYamlite([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %v, want line 4", err)
	}
}
