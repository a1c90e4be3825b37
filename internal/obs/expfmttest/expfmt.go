// Package expfmttest is a strict reader for the Prometheus text
// exposition format (v0.0.4): the in-repo contract checker for
// /metrics.prom, imported by tests only. It validates structure
// (HELP/TYPE comment lines, metric and label name grammar, quote
// escaping in label values, parseable sample values) and returns the
// samples so tests can assert semantics (counter monotonicity across
// scrapes, expected families present).
package expfmttest

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ExpoSample is one parsed sample line.
type ExpoSample struct {
	Name   string // full sample name (may carry _sum/_count suffix)
	Labels map[string]string
	Value  float64
}

// Key is a stable identity for the sample: name plus sorted labels.
func (s ExpoSample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	names := make([]string, 0, len(s.Labels))
	for n := range s.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, s.Labels[n])
	}
	b.WriteByte('}')
	return b.String()
}

// ExpoFamily is one parsed metric family.
type ExpoFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ExpoSample
}

var expoTypes = map[string]bool{
	"counter": true, "gauge": true, "summary": true,
	"histogram": true, "untyped": true,
}

// familyOf strips the summary/histogram sample suffixes so samples
// attach to their declaring family.
func familyOf(sample string, families map[string]*ExpoFamily) string {
	for _, suf := range [...]string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if f := families[base]; f != nil && (f.Type == "summary" || f.Type == "histogram") {
				return base
			}
		}
	}
	return sample
}

// ParseExposition reads and validates a Prometheus text exposition.
// Any grammar violation is an error with the offending line number.
func ParseExposition(r io.Reader) (map[string]*ExpoFamily, error) {
	families := make(map[string]*ExpoFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, families); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := familyOf(s.Name, families)
		f := families[famName]
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE line", lineNo, s.Name)
		}
		if f.Type == "counter" && s.Value < 0 {
			return nil, fmt.Errorf("line %d: counter %s has negative value %v", lineNo, s.Name, s.Value)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

func parseComment(line string, families map[string]*ExpoFamily) error {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return nil // bare comment: legal, ignored
	}
	kw, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch kw {
	case "HELP":
		name, help, _ := strings.Cut(rest, " ")
		if !validName(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		f := families[name]
		if f == nil {
			f = &ExpoFamily{Name: name}
			families[name] = f
		}
		if f.Help != "" {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		f.Help = help
	case "TYPE":
		name, typ, ok := strings.Cut(rest, " ")
		if !ok || !validName(name) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		if !expoTypes[typ] {
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		f := families[name]
		if f == nil {
			f = &ExpoFamily{Name: name}
			families[name] = f
		}
		if f.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		f.Type = typ
	default:
		return nil // other # comments are legal
	}
	return nil
}

func parseSample(line string) (ExpoSample, error) {
	s := ExpoSample{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		s.Labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("sample %s: %w", s.Name, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %s: want value [timestamp], got %q", s.Name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, fields[0])
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %s: bad timestamp %q", s.Name, fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes `name="value",...}` and returns the remainder
// of the line after the closing brace.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' in %q", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validName(name) || strings.Contains(name, ":") {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		val, rem, err := parseQuoted(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", name, err)
		}
		labels[name] = val
		rest = rem
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		switch rest[0] {
		case ',':
			rest = rest[1:]
		case '}':
			return labels, rest[1:], nil
		default:
			return nil, "", fmt.Errorf("unexpected %q after label value", rest[0])
		}
	}
}

// parseQuoted consumes a label value after its opening quote,
// honoring the \\, \n and \" escapes of the exposition format.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case '"':
				b.WriteByte('"')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// validName reports whether s matches the exposition grammar's metric
// name, [a-zA-Z_:][a-zA-Z0-9_:]*. It is written out here rather than
// shared with obs, so the checker cannot inherit a bug of the producer.
func validName(s string) bool {
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return s != ""
}
