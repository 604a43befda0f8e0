package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// MTU is the packet size assumed by mahimahi-style traces, in which each
// line is a millisecond timestamp at which one MTU-sized packet may be
// delivered. The Sprout/mahimahi tools use 1500-byte delivery slots.
const MTU = 1500

// ReadMahimahi parses a mahimahi-style trace: one integer per line, the
// millisecond at which one MTU of data can cross the link. Repeated
// timestamps mean multiple MTUs in that millisecond. The trace must pass
// Validate, so lines must be non-negative and non-decreasing.
func ReadMahimahi(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{Name: "mahimahi"}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at, err := parseDuration(line, time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("trace: mahimahi line %d: %v", lineNo, err)
		}
		tr.Ops = append(tr.Ops, Opportunity{At: at, Bytes: MTU})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Ops) > 0 {
		tr.Duration = tr.Ops[len(tr.Ops)-1].At + time.Millisecond
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteMahimahi serializes the trace in mahimahi format. Each opportunity is
// decomposed into ceil(Bytes/MTU) MTU slots at its timestamp, so the written
// trace's capacity is within one MTU per opportunity of the original.
func (tr *Trace) WriteMahimahi(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, op := range tr.Ops {
		slots := (op.Bytes + MTU - 1) / MTU
		ms := op.At.Milliseconds()
		for k := 0; k < slots; k++ {
			if _, err := fmt.Fprintf(bw, "%d\n", ms); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
