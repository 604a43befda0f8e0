package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// One entry of the Chrome trace_event JSON array format (load
// chrome://tracing or https://ui.perfetto.dev) is
//
//	{"name":"…","ph":"X","ts":N,"dur":N,"pid":N,"tid":N,"s":"t","args":{…}}
//
// pid groups by run, tid by flow, ts/dur are microseconds of virtual time.
// "dur" is left out when zero, "s" on everything but instants, and the args
// are written in sorted-key order.

// chromeArg is one member of an entry's "args" object.
type chromeArg struct {
	key string
	val float64
}

// instantArg names one value slot of an instant.
type instantArg struct {
	key  string
	slot int
}

// instantArgs lists, per kind, the value slots an instant carries, in the
// sorted-key order the args are written in.
var instantArgs = func() (out [numKinds][]instantArg) {
	for k, meta := range kindMeta {
		for slot, name := range meta.fields {
			if name != "" {
				out[k] = append(out[k], instantArg{name, slot})
			}
		}
		sort.Slice(out[k], func(i, j int) bool { return out[k][i].key < out[k][j].key })
	}
	return out
}()

// chromeWriter appends one entry at a time into a reused buffer.
type chromeWriter struct {
	bw      *bufio.Writer
	buf     []byte
	entries int
}

// name starts an entry: the separator from the one before, then the name,
// prefix+str, left open so the caller can append more to it.
func (c *chromeWriter) name(prefix, str string) {
	c.buf = c.buf[:0]
	if c.entries > 0 {
		c.buf = append(c.buf, ",\n"...)
	}
	c.entries++
	c.buf = append(c.buf, `{"name":"`...)
	c.buf = appendJSONStringBody(c.buf, prefix)
	c.buf = appendJSONStringBody(c.buf, str)
}

// finish closes the name, appends the other members and writes the entry
// out. src is the event being rendered, named if a value cannot be written.
func (c *chromeWriter) finish(src *Event, ph byte, ts, dur float64, args []chromeArg) error {
	var ok bool
	b := append(c.buf, `","ph":"`...)
	b = append(b, ph)
	b = append(b, `","ts":`...)
	if b, ok = appendJSONFloat(b, ts); !ok {
		return chromeErr(src, "ts", ts)
	}
	if dur != 0 {
		b = append(b, `,"dur":`...)
		if b, ok = appendJSONFloat(b, dur); !ok {
			return chromeErr(src, "dur", dur)
		}
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, src.Run, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(src.Flow), 10)
	if ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	for i, a := range args {
		if i == 0 {
			b = append(b, `,"args":{`...)
		} else {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.key)
		b = append(b, ':')
		if b, ok = appendJSONFloat(b, a.val); !ok {
			return chromeErr(src, a.key, a.val)
		}
	}
	if len(args) > 0 {
		b = append(b, '}')
	}
	c.buf = append(b, '}')
	_, err := c.bw.Write(c.buf)
	return err
}

// chromeErr reports a NaN or ±Inf that stopped the export.
func chromeErr(src *Event, what string, x float64) error {
	return fmt.Errorf("obs: chrome: event seq %d (%v): %s is %s", src.Seq, src.Kind, what, nonFinite(x))
}

// instant renders e as an "i" marker carrying its named value slots.
func (c *chromeWriter) instant(e *Event, ts float64) error {
	c.name(e.Kind.String(), "")
	if e.Str != "" {
		c.buf = append(c.buf, ' ')
		c.buf = appendJSONStringBody(c.buf, e.Str)
	}
	v := e.values()
	var args [6]chromeArg
	order := instantArgs[e.Kind]
	for i, a := range order {
		args[i] = chromeArg{a.key, v[a.slot]}
	}
	return c.finish(e, 'i', ts, 0, args[:len(order)])
}

// WriteChromeTrace renders events in Chrome trace_event format:
//
//   - verus.epoch events become "C" (counter) tracks, one per flow, so the
//     window, quota, and delay estimates plot as stacked time series;
//   - fault.begin/fault.end pairs become "X" (complete) slices spanning the
//     fault window;
//   - net.attrib events become per-flow "X" (complete) slices, one per
//     nonzero delay component, laid end-to-end over the packet's lifetime
//     [sink-total, sink] so each delivery renders as a stacked delay budget;
//   - everything else becomes an "i" (instant) marker.
//
// Events must be in emission order (as returned by Tracer.Snapshot); fault
// windows still open at the end of the trace are emitted as instants. A
// value that comes out NaN or ±Inf cannot be written; the error names the
// event.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	c := chromeWriter{bw: bw, buf: make([]byte, 0, 256)}

	// Open fault windows, keyed by (run, flow, kind string).
	type faultKey struct {
		run  int64
		flow int32
		str  string
	}
	open := make(map[faultKey]*Event)

	for i := range events {
		e := &events[i]
		ts := float64(e.At) / 1e3 // ns -> µs
		var err error
		switch e.Kind {
		case KindVerusEpoch:
			c.name("verus flow ", "")
			c.buf = strconv.AppendInt(c.buf, int64(e.Flow), 10)
			err = c.finish(e, 'C', ts, 0, []chromeArg{
				{"dest_ms", e.V1 * 1e3},
				{"dmax_ms", e.V0 * 1e3},
				{"quota", e.V3},
				{"w_pkts", e.V2},
			})
		case KindNetAttrib:
			// Reconstruct the packet's lifetime span backward from the sink
			// time: components are laid end-to-end in enum order, which also
			// approximates their chronological order on a fault-free path.
			comps := [...]struct {
				name string
				secs float64
			}{
				{"queue", e.V0}, {"ser", e.V1}, {"prop", e.V2},
				{"fault", e.V3}, {"detour", e.V4},
			}
			start := ts - e.V5*1e6 // s -> µs
			total := []chromeArg{{"total_ms", e.V5 * 1e3}}
			for _, comp := range comps {
				if comp.secs <= 0 {
					continue
				}
				c.name("delay ", comp.name)
				if err = c.finish(e, 'X', start, comp.secs*1e6, total); err != nil {
					break
				}
				start += comp.secs * 1e6
			}
		case KindFaultBegin:
			open[faultKey{e.Run, e.Flow, e.Str}] = e
		case KindFaultEnd:
			k := faultKey{e.Run, e.Flow, e.Str}
			if b, ok := open[k]; ok {
				delete(open, k)
				begin := float64(b.At) / 1e3
				c.name("fault ", b.Str)
				err = c.finish(e, 'X', begin, ts-begin, []chromeArg{
					{"drained", b.V1},
					{"released", e.V0},
				})
			} else {
				err = c.instant(e, ts)
			}
		default:
			err = c.instant(e, ts)
		}
		if err != nil {
			return err
		}
	}
	// Unclosed fault windows degrade to instants at their open time.
	// Deterministic order: events arrived ordered, and at most a handful of
	// windows stay open, so sweep the original slice rather than the map.
	// A key's earlier begins were closed or superseded: only the one the map
	// still holds is open.
	for i := range events {
		e := &events[i]
		if e.Kind != KindFaultBegin || open[faultKey{e.Run, e.Flow, e.Str}] != e {
			continue
		}
		if err := c.instant(e, float64(e.At)/1e3); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
