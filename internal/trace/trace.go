// Package trace defines the channel-trace representation shared by the
// cellular channel model, the network simulator, and the experiment
// harnesses.
//
// A trace is a sequence of delivery opportunities: at time At the channel can
// deliver up to Bytes bytes. This captures exactly what the paper measures in
// §3 — bursty arrivals whose burst sizes and inter-arrival times vary — and
// what its OPNET setup replays ("channel traces ... contain inter-arrival
// times between consecutive packet arrivals").
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// Opportunity is one delivery opportunity: Bytes may cross the channel at At.
type Opportunity struct {
	At    time.Duration
	Bytes int
}

// Trace is an ordered sequence of delivery opportunities over [0, Duration).
type Trace struct {
	Name     string
	Ops      []Opportunity
	Duration time.Duration
}

// Validate checks ordering and bounds invariants.
func (tr *Trace) Validate() error {
	if tr.Duration < 0 {
		return fmt.Errorf("trace: negative duration %v", tr.Duration)
	}
	var prev time.Duration = -1
	for i, op := range tr.Ops {
		if op.At < 0 {
			return fmt.Errorf("trace: op %d has negative time %v", i, op.At)
		}
		if op.At < prev {
			return fmt.Errorf("trace: op %d out of order (%v after %v)", i, op.At, prev)
		}
		if op.Bytes < 0 {
			return fmt.Errorf("trace: op %d has negative size %d", i, op.Bytes)
		}
		if op.At >= tr.Duration && tr.Duration > 0 {
			return fmt.Errorf("trace: op %d at %v beyond duration %v", i, op.At, tr.Duration)
		}
		prev = op.At
	}
	return nil
}

// TotalBytes returns the sum of all opportunity sizes.
func (tr *Trace) TotalBytes() int64 {
	var n int64
	for _, op := range tr.Ops {
		n += int64(op.Bytes)
	}
	return n
}

// MeanMbps returns the trace's average capacity in megabits per second.
func (tr *Trace) MeanMbps() float64 {
	if tr.Duration <= 0 {
		return 0
	}
	return float64(tr.TotalBytes()) * 8 / tr.Duration.Seconds() / 1e6
}

// WindowedMbps returns capacity per window of the given size, in Mbps
// (the Figure 4 view of a trace).
func (tr *Trace) WindowedMbps(window time.Duration) []float64 {
	if window <= 0 || tr.Duration <= 0 {
		return nil
	}
	n := int((tr.Duration + window - 1) / window)
	out := make([]float64, n)
	for _, op := range tr.Ops {
		w := int(op.At / window)
		if w >= 0 && w < n {
			out[w] += float64(op.Bytes)
		}
	}
	secs := window.Seconds()
	for i := range out {
		out[i] = out[i] * 8 / secs / 1e6
	}
	return out
}

// Scale returns a copy with every opportunity size multiplied by factor
// (rounded to the nearest byte, never below zero).
func (tr *Trace) Scale(factor float64) *Trace {
	out := &Trace{Name: tr.Name, Duration: tr.Duration, Ops: make([]Opportunity, len(tr.Ops))}
	for i, op := range tr.Ops {
		b := int(float64(op.Bytes)*factor + 0.5)
		if b < 0 {
			b = 0
		}
		out.Ops[i] = Opportunity{At: op.At, Bytes: b}
	}
	return out
}

// Write serializes the trace as CSV: a header line, then
// "micros,bytes" rows.
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %q duration_us=%d\n", tr.Name, tr.Duration.Microseconds()); err != nil {
		return err
	}
	for _, op := range tr.Ops {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", op.At.Microseconds(), op.Bytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseDuration parses s as a decimal count of unit, failing when the count
// does not fit a Duration.
func parseDuration(s string, unit time.Duration) (time.Duration, error) {
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt64/int64(unit) || n < math.MinInt64/int64(unit) {
		return 0, fmt.Errorf("%d×%v overflows a duration", n, unit)
	}
	return time.Duration(n) * unit, nil
}

// Read parses the CSV format produced by Write. It fails on any trace
// that does not pass Validate.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	tr := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// The name comes first and is cut off, so a name that contains
			// "duration_us=" cannot shadow the field after it.
			if i := strings.Index(line, "trace \""); i >= 0 {
				rest := line[i+len("trace \""):]
				if j := strings.Index(rest, "\""); j >= 0 {
					tr.Name = rest[:j]
					line = rest[j+1:]
				}
			}
			if i := strings.Index(line, "duration_us="); i >= 0 {
				d, err := parseDuration(line[i+len("duration_us="):], time.Microsecond)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad duration: %v", lineNo, err)
				}
				tr.Duration = d
			}
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields, got %d", lineNo, len(parts))
		}
		at, err := parseDuration(parts[0], time.Microsecond)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %v", lineNo, err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %v", lineNo, err)
		}
		tr.Ops = append(tr.Ops, Opportunity{At: at, Bytes: b})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tr.Duration == 0 && len(tr.Ops) > 0 {
		last := tr.Ops[len(tr.Ops)-1].At
		tr.Duration = (last/time.Millisecond + 1) * time.Millisecond
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Save writes the trace to a file.
func (tr *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
