package campaign

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// yamlite is a deliberately small YAML-subset reader: enough to express
// campaign specs as humans like to write them, without pulling a YAML
// dependency into the module. The supported subset is:
//
//   - block maps (`key: value`, nested blocks indented by spaces)
//   - block lists (`- item`), including lists of maps (`- key: value` with
//     continuation keys indented to the item's column)
//   - inline flow maps `{a: 1, b: two}` and lists `[1, 2.5e9, x]`
//   - scalars: true/false, null/~, integers, finite floats (incl. 1.15e9),
//     single- or double-quoted strings, bare strings
//   - full-line `# comments` and trailing ` # comments` on unquoted values
//
// Anchors, multi-line strings, multi-document streams, tabs and non-finite
// numbers (nan, inf, or a float such as 1e400 that overflows float64) are
// rejected. Parse errors carry 1-based line numbers.
func parseYamlite(data []byte) (any, error) {
	ls, err := splitYamliteLines(data)
	if err != nil {
		return nil, err
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	v, next, err := parseYamliteBlock(ls, 0, ls[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(ls) {
		return nil, fmt.Errorf("line %d: unexpected outdent or mixed structure", ls[next].num)
	}
	return v, nil
}

// yamliteLine is one non-blank content line.
type yamliteLine struct {
	num    int // 1-based source line
	indent int // leading spaces
	text   string
}

func splitYamliteLines(data []byte) ([]yamliteLine, error) {
	var out []yamliteLine
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \r")
		trimmed := strings.TrimLeft(line, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(trimmed)
		if strings.ContainsRune(line[:indent], '\t') || strings.HasPrefix(trimmed, "\t") {
			return nil, fmt.Errorf("line %d: tabs are not allowed in indentation", i+1)
		}
		out = append(out, yamliteLine{num: i + 1, indent: indent, text: trimmed})
	}
	return out, nil
}

// parseYamliteBlock parses the block starting at ls[i] whose lines sit at
// exactly `indent`, returning the value and the index of the first line
// after the block.
func parseYamliteBlock(ls []yamliteLine, i, indent int) (any, int, error) {
	if isYamliteListItem(ls[i].text) {
		return parseYamliteList(ls, i, indent)
	}
	return parseYamliteMap(ls, i, indent)
}

func isYamliteListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func parseYamliteMap(ls []yamliteLine, i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(ls) && ls[i].indent == indent {
		l := ls[i]
		if isYamliteListItem(l.text) {
			return nil, 0, fmt.Errorf("line %d: list item inside a map block", l.num)
		}
		key, rest, err := splitYamliteKey(l)
		if err != nil {
			return nil, 0, err
		}
		if _, dup := m[key]; dup {
			return nil, 0, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		i++
		if rest != "" {
			v, err := parseYamliteFlow(rest, l.num)
			if err != nil {
				return nil, 0, err
			}
			m[key] = v
			continue
		}
		// Block value: the following lines indented deeper than the key.
		if i >= len(ls) || ls[i].indent <= indent {
			m[key] = nil
			continue
		}
		v, next, err := parseYamliteBlock(ls, i, ls[i].indent)
		if err != nil {
			return nil, 0, err
		}
		m[key], i = v, next
	}
	if i < len(ls) && ls[i].indent > indent {
		return nil, 0, fmt.Errorf("line %d: unexpected indent", ls[i].num)
	}
	return m, i, nil
}

func parseYamliteList(ls []yamliteLine, i, indent int) (any, int, error) {
	var out []any
	for i < len(ls) && ls[i].indent == indent {
		l := ls[i]
		if !isYamliteListItem(l.text) {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
		i++
		switch {
		case rest == "":
			// `- ` alone: the item is the following deeper block.
			if i >= len(ls) || ls[i].indent <= indent {
				out = append(out, nil)
				continue
			}
			v, next, err := parseYamliteBlock(ls, i, ls[i].indent)
			if err != nil {
				return nil, 0, err
			}
			out, i = append(out, v), next
		case yamliteLooksLikeMapEntry(rest):
			// `- key: value`: a map item. Reparse the inline fragment plus
			// every continuation line (indented past the dash) as one block
			// whose keys sit at the item's content column; deeper lines are
			// nested values handled by the recursive map parse.
			itemIndent := indent + 2
			item := []yamliteLine{{num: l.num, indent: itemIndent, text: rest}}
			for i < len(ls) && ls[i].indent > indent {
				item = append(item, ls[i])
				i++
			}
			v, _, err := parseYamliteMap(item, 0, itemIndent)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, v)
		default:
			v, err := parseYamliteFlow(rest, l.num)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, v)
		}
	}
	if i < len(ls) && ls[i].indent > indent {
		return nil, 0, fmt.Errorf("line %d: unexpected indent", ls[i].num)
	}
	return out, i, nil
}

// yamliteLooksLikeMapEntry reports whether a list-item fragment starts a
// `key: value` map entry (as opposed to a scalar containing a colon, which
// must be quoted, or a flow value).
func yamliteLooksLikeMapEntry(s string) bool {
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") ||
		strings.HasPrefix(s, `"`) || strings.HasPrefix(s, "'") {
		return false
	}
	idx := strings.Index(s, ":")
	if idx <= 0 {
		return false
	}
	return idx == len(s)-1 || s[idx+1] == ' '
}

// splitYamliteKey splits `key: rest` (or `key:`), stripping a trailing
// comment from the unquoted remainder.
func splitYamliteKey(l yamliteLine) (key, rest string, err error) {
	idx := strings.Index(l.text, ":")
	if idx <= 0 {
		return "", "", fmt.Errorf("line %d: expected `key: value`", l.num)
	}
	key = strings.TrimSpace(l.text[:idx])
	if strings.HasPrefix(key, `"`) || strings.HasPrefix(key, "'") {
		return "", "", fmt.Errorf("line %d: quoted keys are not supported", l.num)
	}
	rest = strings.TrimSpace(l.text[idx+1:])
	return key, rest, nil
}

// parseYamliteFlow parses an inline value: a flow map/list, a quoted
// string, or a scalar (with trailing-comment stripping for unquoted text).
func parseYamliteFlow(s string, lineNum int) (any, error) {
	p := &yamliteFlowParser{s: s, line: lineNum}
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.s) && !strings.HasPrefix(p.s[p.pos:], "#") {
		return nil, fmt.Errorf("line %d: trailing garbage %q", lineNum, p.s[p.pos:])
	}
	return v, nil
}

type yamliteFlowParser struct {
	s    string
	pos  int
	line int
}

func (p *yamliteFlowParser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *yamliteFlowParser) skipSpace() {
	for p.pos < len(p.s) && p.s[p.pos] == ' ' {
		p.pos++
	}
}

func (p *yamliteFlowParser) value() (any, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return nil, p.errf("missing value")
	}
	switch p.s[p.pos] {
	case '{':
		return p.flowMap()
	case '[':
		return p.flowList()
	case '"', '\'':
		return p.quoted()
	default:
		return p.bareScalar()
	}
}

func (p *yamliteFlowParser) flowMap() (any, error) {
	p.pos++ // {
	m := map[string]any{}
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == '}' {
		p.pos++
		return m, nil
	}
	for {
		p.skipSpace()
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] != ':' {
			p.pos++
		}
		if p.pos >= len(p.s) {
			return nil, p.errf("flow map missing `:`")
		}
		key := strings.TrimSpace(p.s[start:p.pos])
		if key == "" {
			return nil, p.errf("flow map with empty key")
		}
		p.pos++ // :
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, p.errf("duplicate key %q", key)
		}
		m[key] = v
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, p.errf("unterminated flow map")
		}
		switch p.s[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return m, nil
		default:
			return nil, p.errf("expected `,` or `}` in flow map, got %q", p.s[p.pos])
		}
	}
}

func (p *yamliteFlowParser) flowList() (any, error) {
	p.pos++ // [
	out := []any{}
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ']' {
		p.pos++
		return out, nil
	}
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, p.errf("unterminated flow list")
		}
		switch p.s[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return out, nil
		default:
			return nil, p.errf("expected `,` or `]` in flow list, got %q", p.s[p.pos])
		}
	}
}

func (p *yamliteFlowParser) quoted() (any, error) {
	quote := p.s[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.s) {
		if p.s[p.pos] == quote {
			v := p.s[start:p.pos]
			p.pos++
			return v, nil
		}
		p.pos++
	}
	return nil, p.errf("unterminated string")
}

// bareScalar reads up to the next flow delimiter (or trailing comment) and
// types the token: bool, null, integer, float, else string.
func (p *yamliteFlowParser) bareScalar() (any, error) {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == ',' || c == '}' || c == ']' {
			break
		}
		if c == '#' && p.pos > start && p.s[p.pos-1] == ' ' {
			break
		}
		p.pos++
	}
	tok := strings.TrimSpace(p.s[start:p.pos])
	if tok == "" {
		return nil, p.errf("missing value")
	}
	switch tok {
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "null", "~":
		return nil, nil
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return n, nil
	}
	// ParseFloat also reads nan, inf and infinity, and turns an overflow
	// into an infinity with ErrRange. JSON has no spelling for either, so
	// they fail here, where the line is known, not in the spec decoder.
	if f, err := strconv.ParseFloat(tok, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, p.errf("%q is not a finite number (quote it for a string)", tok)
		}
		return f, nil
	}
	return tok, nil
}
