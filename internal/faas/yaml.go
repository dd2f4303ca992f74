// yaml.go implements the minimal YAML subset the function deployment files
// use (the paper extends OpenFaaS YAML with in-storage acceleration hints):
// nested mappings by two-space indentation, scalar values, flow lists
// ("[a, b]"), block lists ("- item"), and comments. The stdlib has no YAML
// support, and the subset keeps parsing exact and dependency-free.
package faas

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// YAMLValue is one parsed node: exactly one of Scalar, List, or Map is set.
type YAMLValue struct {
	Scalar string
	List   []string
	Map    map[string]*YAMLValue
	// Keys preserves mapping order for deterministic serialization.
	Keys []string
}

// IsMap reports whether the node is a mapping.
func (v *YAMLValue) IsMap() bool { return v.Map != nil }

// Get returns a child of a mapping node.
func (v *YAMLValue) Get(key string) (*YAMLValue, bool) {
	if v.Map == nil {
		return nil, false
	}
	c, ok := v.Map[key]
	return c, ok
}

// Str returns the scalar at key, or def.
func (v *YAMLValue) Str(key, def string) string {
	if c, ok := v.Get(key); ok && c.Map == nil && c.List == nil {
		return c.Scalar
	}
	return def
}

// Bool returns the boolean at key, or def.
func (v *YAMLValue) Bool(key string, def bool) bool {
	s := v.Str(key, "")
	switch strings.ToLower(s) {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	return def
}

// Int returns the integer at key, or def.
func (v *YAMLValue) Int(key string, def int) int {
	if n, err := strconv.Atoi(v.Str(key, "")); err == nil {
		return n
	}
	return def
}

// Duration returns the duration at key, or def.
func (v *YAMLValue) Duration(key string, def time.Duration) time.Duration {
	if d, err := time.ParseDuration(v.Str(key, "")); err == nil {
		return d
	}
	return def
}

type yamlLine struct {
	indent int
	key    string
	value  string
	isItem bool // "- item" list entry
	number int  // 1-based source line
}

// ParseYAML parses the supported subset into a root mapping.
func ParseYAML(src string) (*YAMLValue, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if idx := strings.Index(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent%2 != 0 {
			return nil, fmt.Errorf("faas: yaml line %d: odd indentation", i+1)
		}
		body := strings.TrimSpace(line)
		if strings.HasPrefix(body, "- ") || body == "-" {
			lines = append(lines, yamlLine{
				indent: indent / 2,
				value:  strings.TrimSpace(strings.TrimPrefix(body, "-")),
				isItem: true,
				number: i + 1,
			})
			continue
		}
		colon := strings.Index(body, ":")
		if colon < 0 {
			return nil, fmt.Errorf("faas: yaml line %d: missing ':'", i+1)
		}
		lines = append(lines, yamlLine{
			indent: indent / 2,
			key:    strings.TrimSpace(body[:colon]),
			value:  strings.TrimSpace(body[colon+1:]),
			number: i + 1,
		})
	}
	root := &YAMLValue{Map: map[string]*YAMLValue{}}
	pos := 0
	if err := parseMapping(lines, &pos, 0, root); err != nil {
		return nil, err
	}
	if pos != len(lines) {
		return nil, fmt.Errorf("faas: yaml line %d: unexpected indentation", lines[pos].number)
	}
	return root, nil
}

func parseMapping(lines []yamlLine, pos *int, indent int, into *YAMLValue) error {
	for *pos < len(lines) {
		ln := lines[*pos]
		if ln.indent < indent {
			return nil
		}
		if ln.indent > indent {
			return fmt.Errorf("faas: yaml line %d: unexpected indent", ln.number)
		}
		if ln.isItem {
			return fmt.Errorf("faas: yaml line %d: list item outside a list", ln.number)
		}
		if _, dup := into.Map[ln.key]; dup {
			return fmt.Errorf("faas: yaml line %d: duplicate key %q", ln.number, ln.key)
		}
		*pos++
		child := &YAMLValue{}
		switch {
		case ln.value != "":
			if err := parseInline(ln.value, child); err != nil {
				return fmt.Errorf("faas: yaml line %d: %v", ln.number, err)
			}
		case *pos < len(lines) && lines[*pos].indent == indent+1 && lines[*pos].isItem:
			for *pos < len(lines) && lines[*pos].indent == indent+1 && lines[*pos].isItem {
				child.List = append(child.List, unquote(lines[*pos].value))
				*pos++
			}
		case *pos < len(lines) && lines[*pos].indent > indent:
			child.Map = map[string]*YAMLValue{}
			if err := parseMapping(lines, pos, indent+1, child); err != nil {
				return err
			}
		default:
			// Empty value: treated as empty scalar.
		}
		into.Map[ln.key] = child
		into.Keys = append(into.Keys, ln.key)
	}
	return nil
}

func parseInline(s string, into *YAMLValue) error {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return fmt.Errorf("unterminated flow list %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			into.List = []string{}
			return nil
		}
		for _, part := range strings.Split(inner, ",") {
			into.List = append(into.List, unquote(strings.TrimSpace(part)))
		}
		return nil
	}
	into.Scalar = unquote(s)
	return nil
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
