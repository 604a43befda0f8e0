package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// familyOf splits a full series name into its family (the metric name a
// Prometheus scraper sees) and the label block, "" when unlabeled.
func familyOf(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` header per family, series sorted by
// name within sorted families, values in shortest-round-trip form.
// Histograms expose cumulative `_bucket{le="..."}` series, `_sum`, and
// `_count`, with histogram labels merged into the le block. Each line is
// appended into one reused buffer, so an export allocates a fixed number of
// times however many series the registry holds.
func WritePrometheus(w io.Writer, r *Registry) error {
	samples := r.Snapshot()

	// Group into families first: sorted sample order does not guarantee a
	// family's series are adjacent ('_' sorts before '{'), and the text
	// format requires each family written exactly once. The stable sort
	// keeps each family's series in name order.
	slices.SortStableFunc(samples, func(a, b Sample) int {
		fa, _ := familyOf(a.Name)
		fb, _ := familyOf(b.Name)
		return strings.Compare(fa, fb)
	})

	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 256)
	emit := func() {
		bw.Write(line) // a failed write sticks in bw, and Flush returns it
		line = line[:0]
	}
	for len(samples) > 0 {
		fam, _ := familyOf(samples[0].Name)
		kind := samples[0].Kind
		n := 1
		for ; n < len(samples); n++ {
			if f, _ := familyOf(samples[n].Name); f != fam {
				break
			}
			if k := samples[n].Kind; k != kind {
				return errors.New("obs: family " + strconv.Quote(fam) + " mixes " + kind.String() + " and " + k.String() + " series")
			}
		}
		group := samples[:n]
		samples = samples[n:]
		line = append(line, "# TYPE "...)
		line = append(line, fam...)
		line = append(line, ' ')
		line = append(line, kind.String()...)
		line = append(line, '\n')
		emit()
		for _, s := range group {
			_, labels := familyOf(s.Name)
			switch s.Kind {
			case KindCounter, KindGauge:
				line = appendSeries(line, fam, "", labels)
				line = appendFloat(line, s.Value)
				emit()
			case KindHistogram:
				for i, bound := range s.BucketBounds {
					line = appendBucket(line, fam, labels, bound, s.Buckets[i])
					emit()
				}
				line = appendBucket(line, fam, labels, math.Inf(1), s.Count)
				emit()
				line = appendSeries(line, fam, "_sum", labels)
				line = appendFloat(line, s.Sum)
				emit()
				line = appendSeries(line, fam, "_count", labels)
				line = strconv.AppendInt(line, s.Count, 10)
				line = append(line, '\n')
				emit()
			}
		}
	}
	return bw.Flush()
}

// appendSeries appends a line's series name, fam+suffix+labels, and the
// space before its value.
func appendSeries(b []byte, fam, suffix, labels string) []byte {
	b = append(b, fam...)
	b = append(b, suffix...)
	b = append(b, labels...)
	return append(b, ' ')
}

// appendFloat appends v in shortest-round-trip form ("+Inf", "-Inf" and
// "NaN" for the non-finite) and ends the line.
func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendBucket appends one cumulative bucket line: the series' own labels,
// then le.
func appendBucket(b []byte, fam, labels string, le float64, n int64) []byte {
	b = append(b, fam...)
	b = append(b, "_bucket{"...)
	if inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}"); inner != "" {
		b = append(b, inner...)
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	b = strconv.AppendFloat(b, le, 'g', -1, 64)
	b = append(b, `"} `...)
	b = strconv.AppendInt(b, n, 10)
	return append(b, '\n')
}

// PromMetrics is the result of ParsePrometheus: the declared family types
// and every series value.
type PromMetrics struct {
	Types  map[string]string  // family -> "counter" | "gauge" | "histogram"
	Values map[string]float64 // full series name -> value
}

// ParsePrometheus is a strict scanner for the text exposition format as
// WritePrometheus produces it (and as any conformant exposition should
// look). It rejects malformed lines, series whose family lacks a `# TYPE`
// declaration, duplicate series, and unbalanced label blocks — it is the
// exporter's round-trip test oracle and the CI smoke check.
func ParsePrometheus(r io.Reader) (*PromMetrics, error) {
	pm := &PromMetrics{Types: make(map[string]string), Values: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) == 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: prom line %d: unknown type %q", line, fields[3])
				}
				if _, dup := pm.Types[fields[2]]; dup {
					return nil, fmt.Errorf("obs: prom line %d: duplicate TYPE for %q", line, fields[2])
				}
				pm.Types[fields[2]] = fields[3]
				continue
			}
			return nil, fmt.Errorf("obs: prom line %d: malformed comment %q", line, text)
		}
		name, value, err := parsePromSeries(text)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: %w", line, err)
		}
		fam, _ := familyOf(name)
		if !promFamilyDeclared(pm.Types, fam) {
			return nil, fmt.Errorf("obs: prom line %d: series %q has no TYPE declaration", line, name)
		}
		if _, dup := pm.Values[name]; dup {
			return nil, fmt.Errorf("obs: prom line %d: duplicate series %q", line, name)
		}
		pm.Values[name] = value
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: prom: %w", err)
	}
	return pm, nil
}

// promFamilyDeclared checks fam or, for histogram component series, the
// base family (stripping _bucket/_sum/_count) against the TYPE table.
func promFamilyDeclared(types map[string]string, fam string) bool {
	if _, ok := types[fam]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(fam, suffix)
		if found && types[base] == "histogram" {
			return true
		}
	}
	return false
}

// parsePromSeries splits "name{labels} value" or "name value", validating
// the label block's quoting and structure.
func parsePromSeries(text string) (name string, value float64, err error) {
	var rest string
	if i := strings.IndexByte(text, '{'); i >= 0 {
		end, err := scanLabelBlock(text[i:])
		if err != nil {
			return "", 0, err
		}
		name = text[:i+end]
		rest = text[i+end:]
	} else {
		sp := strings.IndexByte(text, ' ')
		if sp < 0 {
			return "", 0, fmt.Errorf("series %q has no value", text)
		}
		name = text[:sp]
		rest = text[sp:]
	}
	if name == "" || !validPromName(familyName(name)) {
		return "", 0, fmt.Errorf("invalid metric name in %q", text)
	}
	rest = strings.TrimSpace(rest)
	// The format allows an optional timestamp after the value; reject it
	// here — nothing in this repo writes one, and strictness is the point.
	if strings.ContainsAny(rest, " \t") {
		return "", 0, fmt.Errorf("trailing fields after value in %q", text)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q: %w", text, err)
	}
	return name, v, nil
}

func familyName(series string) string {
	fam, _ := familyOf(series)
	return fam
}

func validPromName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// scanLabelBlock returns the index just past the closing '}' of the label
// block starting at s[0] == '{', validating k="v" pair structure.
func scanLabelBlock(s string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// label name
		start := i
		for i < len(s) && s[i] != '=' && s[i] != '}' {
			i++
		}
		if i >= len(s) || s[i] != '=' || !validPromName(s[start:i]) {
			return 0, fmt.Errorf("malformed label name in %q", s)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
