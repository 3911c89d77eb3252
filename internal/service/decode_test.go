package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
)

// jsonBody is an explicit-batch body as encoding/json writes it: p batches
// of n shortest-round-trip float weights in (0, 100] and sequential IDs.
func jsonBody(p, n int, seed uint64) []byte {
	r := rand.New(rand.NewPCG(seed, 0))
	req := IngestRequest{Batches: make([][]WireItem, p)}
	id := uint64(1)
	for pe := range req.Batches {
		req.Batches[pe] = make([]WireItem, n)
		for i := range req.Batches[pe] {
			req.Batches[pe][i] = WireItem{W: 100 * (1 - r.Float64()), ID: id}
			id++
		}
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}

// loadgenBody is the body reservoir-loadgen's explicitBody sends: %g
// weights and full-width (up to 20-digit) IDs from an LCG.
func loadgenBody(p, n int, seed uint64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"batches":[`)
	id := seed
	for pe := 0; pe < p; pe++ {
		if pe > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			id = id*6364136223846793005 + 1442695040888963407
			fmt.Fprintf(&b, `{"w":%g,"id":%d}`, 1+float64(id%997)/10, id)
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// decodeIngest runs DecodeBody on data with the ingest limit.
func decodeIngest(data []byte) (IngestRequest, error) {
	var req IngestRequest
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	err := DecodeBody(httptest.NewRecorder(), r, maxIngestBytes, &req)
	return req, err
}

// referenceIngest is the strict encoding/json decode DecodeBody must agree
// with: unknown fields rejected, and nothing but whitespace after the value
// (a second Decode then reports io.EOF).
func referenceIngest(data []byte) (IngestRequest, error) {
	var req IngestRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return req, errTrailing
	}
	return req, nil
}

var errTrailing = errors.New("trailing data after the JSON value")

// sameBatches compares decoded batches bit for bit.
func sameBatches(a, b [][]WireItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (a[i] == nil) != (b[i] == nil) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j].W) != math.Float64bits(b[i][j].W) || a[i][j].ID != b[i][j].ID {
				return false
			}
		}
	}
	return true
}

// checkAgainstReference fails t unless DecodeBody and the reference both
// fail with the same message, or both succeed with the same request.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeIngest(data)
	want, wantErr := referenceIngest(data)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: DecodeBody error %v, reference error %v", data, err, wantErr)
	case err != nil:
		if code := APIErrorCode(err, 0); code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", data, code)
		}
		if err.Error() != "invalid request body: "+wantErr.Error() {
			t.Fatalf("%q: error %q, reference %q", data, err, wantErr)
		}
	case !sameBatches(got.Batches, want.Batches) || (got.Synthetic == nil) != (want.Synthetic == nil):
		t.Fatalf("%q: decoded %+v, reference %+v", data, got, want)
	}
}

// TestScanIngest pins which bodies take the scanner and which fall back;
// either way the result must match encoding/json.
func TestScanIngest(t *testing.T) {
	accept := [][]byte{
		jsonBody(4, 50, 1),
		loadgenBody(4, 50, 1),
		[]byte(` { "batches" : [ [ { "id" : 7 , "w" : 2.5e-3 } ] , [{"w":-0,"id":0}] ] } ` + "\t\r\n"),
		[]byte(`{"batches":[[{"w":1,"id":18446744073709551615},{"w":1E+2,"id":0}]]}`),
	}
	decline := []string{
		" {\"synthetic\":{\"batch_len\":10}}\n",
		`{"batches":[[{"W":1,"id":1}]]}`,
		`{"batches":[[{"w":1,"id":1,"w":2}]]}`,
		`{"batches":[[{"id":1,"id":2}]]}`,
		`{"batches":[[{"w":1}]]}`,
		`{"batches":[[{"w":1,"id":1}]],"synthetic":null}`,
		`{"batches":null}`,
		`{"batches":[null]}`,
		`{"batches":[]}`,
		`{"batches":[[]]}`,
		`{"batches":[[{"w":1e400,"id":1}]]}`,
		`{"batches":[[{"w":1,"id":18446744073709551616}]]}`,
		`{"batches":[[{"w":1,"id":-0}]]}`,
		`{"batches":[[{"w":1,"id":1.0}]]}`,
		`{"batches":[[{"w":1,"id":1e2}]]}`,
		`{"batches":[[{"w":01,"id":1}]]}`,
		`{"batches":[[{"w":1.,"id":1}]]}`,
		`{"batches":[[{"w":"1","id":1}]]}`,
		`{"batches":[[{"w":1,"id":1}]]}}`,
		`{"batches":[[{"w":1,"id":1}]]}]`,
		`{"batches":[[{"w":1,"id":1}],]}`,
		`{"batches":[[{"w":1,"id":1}]]`,
	}
	for _, body := range accept {
		if _, ok := scanIngest(body); !ok {
			t.Errorf("scanner declined %.80q", body)
		}
		checkAgainstReference(t, body)
	}
	for _, body := range decline {
		if _, ok := scanIngest([]byte(body)); ok {
			t.Errorf("scanner accepted %s", body)
		}
		checkAgainstReference(t, []byte(body))
	}
}

// FuzzDecodeIngest checks DecodeBody into an IngestRequest against the
// strict encoding/json reference on arbitrary bodies (seed corpus in
// testdata/fuzz/FuzzDecodeIngest).
func FuzzDecodeIngest(f *testing.F) {
	f.Fuzz(checkAgainstReference)
}

// BenchmarkDecodeIngest times DecodeBody on a 4 × 2000-item explicit-batch
// body in both shapes clients send and reports it per item.
func BenchmarkDecodeIngest(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"json", jsonBody(4, 2000, 1)},
		{"loadgen", loadgenBody(4, 2000, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				if _, err := decodeIngest(bc.body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*2000), "ns/item")
		})
	}
}
