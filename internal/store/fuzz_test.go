package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"elites/internal/graph"
)

// FuzzReadGraph throws arbitrary bytes at the graph decoder. Malformed input
// must fail with an error, never a panic; and anything accepted must
// re-encode byte-identically, so the decoder admits exactly one byte string
// per graph. The checked-in corpus under testdata/fuzz pins the hostile
// headers, a small valid graph and its truncations.
func FuzzReadGraph(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteGraph(&buf, graph.FromEdges(4, [][2]int{{0, 1}, {1, 0}, {2, 3}})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(append(append([]byte{}, buf.Bytes()...), 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatalf("error %v with a non-nil graph", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteGraph(&out, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input re-encodes differently:\n in % x\nout % x", data, out.Bytes())
		}
	})
}

// TestReadGraphHostileHeaders feeds headers that claim enormous graphs and
// then end: each must fail as corruption after allocating far less than the
// claim.
func TestReadGraphHostileHeaders(t *testing.T) {
	header := func(n, m uint64) []byte {
		b := binary.AppendUvarint([]byte(graphMagic), graphVersion)
		return binary.AppendUvarint(binary.AppendUvarint(b, n), m)
	}
	for name, data := range map[string][]byte{
		"2^62 edges": header(0, 1<<62),
		"2^55 edges": header(0, 1<<55),
		"2^31 nodes": header(1<<31, 0),
		"both":       header(1<<31, 1<<62),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadGraph(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if g != nil || !errors.Is(err, ErrCorruptGraph) {
			t.Fatalf("%s: got graph=%v err=%v, want ErrCorruptGraph", name, g != nil, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("%s: allocated %d bytes for a %d-byte input", name, grew, len(data))
		}
	}
}
