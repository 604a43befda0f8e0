package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseHeader aims arbitrary datagrams at ParseHeader, which decodes
// every packet either side reads off the network. It may not panic. It
// must reject exactly the inputs that are shorter than a header, carry an
// unknown type byte, or carry a negative sequence number; and a header it
// accepts must marshal back to the input's first headerSize bytes. The
// committed corpus sits on each boundary: 23 and 24 bytes, every type byte
// from 0x00 to 0x06, the sign bit of seq, and a payload after the header.
func FuzzParseHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data)
		reject := len(data) < headerSize
		if !reject {
			switch data[0] {
			case typeData, typeAck, typeFin, typeSyn, typeSynAck:
				reject = int64(binary.BigEndian.Uint64(data[2:])) < 0
			default:
				reject = true
			}
		}
		if reject {
			if err == nil {
				t.Fatalf("accepted % x as %+v", data, h)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected % x: %v", data, err)
		}
		if got := h.Marshal(nil); !bytes.Equal(got, data[:headerSize]) {
			t.Fatalf("%+v marshals to % x, parsed from % x", h, got, data[:headerSize])
		}
	})
}
