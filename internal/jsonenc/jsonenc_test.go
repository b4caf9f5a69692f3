package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// reference encodes v as the web layer's encoding/json path does,
// without the trailing newline.
func reference(t *testing.T, v interface{}) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := reference(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendString(nil, s); !bytes.Equal(got, want) {
		t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
	}
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	got, err := AppendFloat([]byte("x"), f)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if err == nil || string(got) != "x" {
			t.Fatalf("AppendFloat(%v) = %q, %v; want an error and dst unchanged", f, got, err)
		}
		return
	}
	want, werr := reference(t, f)
	if err != nil || werr != nil {
		t.Fatalf("AppendFloat(%v): %v, encoding/json: %v", f, err, werr)
	}
	if !bytes.Equal(got[1:], want) {
		t.Fatalf("AppendFloat(%v) = %s, want %s", f, got[1:], want)
	}
}

func TestAppendStringCases(t *testing.T) {
	for _, s := range []string{
		"", "plain", `"quoted" \back\slash`, "<svg a=\"1\">\n</svg>\n", "&amp; <>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "1/√2 · e^{iπ/4}", "\u2028 line \u2029 para",
		"bad \xff utf8 \xc3", "\xe2\x80", "truncated \xe2\x80\xa8x", "\xed\xa0\x80",
	} {
		checkString(t, s)
	}
}

func TestAppendFloatCases(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, -1e-7,
		1.5e-300, 5e-324, 1e20, 1e21, -1e21, 123456789012345678901, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkFloat(t, f)
	}
}

// FuzzJSONString compares the writer with encoding/json over arbitrary
// bytes and arbitrary float64 bit patterns; NaN and ±Inf must be
// rejected.
func FuzzJSONString(f *testing.F) {
	f.Add([]byte(`<text x="1">a & "b"</text>`+"\n"), uint64(0))
	f.Add([]byte("\x00\b\f\x1f\\ \xff\xc3 \u2028\u2029"), math.Float64bits(1e-7))
	f.Add([]byte("√ π"), math.Float64bits(math.NaN()))
	f.Add([]byte{}, math.Float64bits(math.Inf(-1)))
	f.Add([]byte("1e21"), math.Float64bits(1e21))
	f.Fuzz(func(t *testing.T, s []byte, bits uint64) {
		checkString(t, string(s))
		checkFloat(t, math.Float64frombits(bits))
	})
}
