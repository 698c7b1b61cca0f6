package spec

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// addSeedDocs seeds a decoder fuzz target with every checked-in experiment
// and load document; each target gets both kinds, so mutations start from
// the other decoder's fields too.
func addSeedDocs(f *testing.F) {
	f.Helper()
	for _, path := range []string{
		"../../testdata/experiment.json",
		"../../testdata/phased10m.json",
		"../../cmd/ksanload/testdata/golden_load.json",
		"../../cmd/ksanload/testdata/faulted_load.json",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// checkRoundTrip decodes data and, when the decoder accepts it, checks
// that encode → decode → encode reproduces the first encoding byte for
// byte. Bytes are compared, not structs: an empty list such as
// "phases": [] decodes back as nil.
func checkRoundTrip[T any](t *testing.T, data []byte, decode func(io.Reader) (T, error), encode func(T, io.Writer) error) {
	doc, err := decode(bytes.NewReader(data))
	if err != nil {
		return
	}
	var first, second bytes.Buffer
	if err := encode(doc, &first); err != nil {
		t.Fatalf("encoding an accepted document: %v", err)
	}
	back, err := decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decoding the encoding of an accepted document: %v\n%s", err, first.Bytes())
	}
	if err := encode(back, &second); err != nil {
		t.Fatalf("re-encoding: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("unstable round trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}

// FuzzDecode: an experiment document is rejected with an error, never a
// panic, and an accepted one survives the encode/decode round trip.
func FuzzDecode(f *testing.F) {
	addSeedDocs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data, Decode, (*Experiment).Encode)
	})
}

// FuzzDecodeLoad is FuzzDecode for load documents.
func FuzzDecodeLoad(f *testing.F) {
	addSeedDocs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data, DecodeLoad, (*LoadSpec).Encode)
	})
}
