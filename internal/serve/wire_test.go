package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// jsonOracle renders v the way the admin documents are rendered: the
// reference every /extract encoding must match byte for byte.
func jsonOracle(v any) []byte {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, v)
	return w.Body.Bytes()
}

// checkEncoding pins appendResponse and appendBatch to writeJSON for r
// alone, and for batches of r with other.
func checkEncoding(t *testing.T, r, other extractResponse) {
	t.Helper()
	single := append(appendResponse(nil, r, ""), '\n')
	if want := jsonOracle(r); !bytes.Equal(single, want) {
		t.Fatalf("single %#v:\n got %q\nwant %q", r, single, want)
	}
	for _, batch := range [][]extractResponse{{r}, {r, other}, {other, r, r}} {
		got := appendBatch(nil, len(batch), func(i int) extractResponse { return batch[i] })
		if want := jsonOracle(batch); !bytes.Equal(got, want) {
			t.Fatalf("batch %#v:\n got %q\nwant %q", batch, got, want)
		}
	}
}

func TestExtractResponseEncoding(t *testing.T) {
	hit := extractResponse{Hostname: "as7018-pod42.serve3.net", Found: true, ASN: 7018, Suffix: "serve3.net", Class: "good", Digits: "7018"}
	for _, r := range []extractResponse{
		{},
		{Hostname: "lo0.rt1.serve3.net"},
		hit,
		{Hostname: "x.example", Found: true, ASN: 0, Suffix: "example", Class: "poor"},
		{Hostname: "x.example", Found: true, ASN: 4294967295, Digits: "4294967295"},
		{Hostname: "x.example", Found: true, ASN: 3, Suffix: "", Class: "good", Digits: ""},
		{Hostname: `<script>&"quoted"\back</script>`, Found: true, ASN: 1, Suffix: "<>&", Class: `"`, Digits: `\`},
		{Hostname: "ctl\x00\x01\b\f\n\r\t\x1f\x7f.net"},
		{Hostname: "bad\xff\xfeutf8\xc3.net", Suffix: "\xed\xa0\x80"},
		{Hostname: "sep\u2028line\u2029para.net", Digits: "\u2028"},
		{Hostname: "ünïcode.例え.jp", Found: true, ASN: 65000, Suffix: "例え.jp"},
	} {
		checkEncoding(t, r, hit)
	}
}

func FuzzExtractResponseEncoding(f *testing.F) {
	f.Add("as7018-pod42.serve3.net", true, uint32(7018), "serve3.net", "good", "7018")
	f.Add("lo0.rt1.serve3.net", false, uint32(0), "", "", "")
	f.Add(`<&>"\`, true, uint32(0), "\x00", "\u2028", "\xff")
	f.Fuzz(func(t *testing.T, host string, found bool, asn uint32, suffix, class, digits string) {
		r := extractResponse{Hostname: host, Found: found, ASN: asn, Suffix: suffix, Class: class, Digits: digits}
		other := extractResponse{Hostname: digits, Found: !found, ASN: asn / 2, Suffix: class, Class: suffix, Digits: host}
		checkEncoding(t, r, other)
	})
}

// TestExtractHandlerBytes: both /extract handlers answer with exactly
// the bytes writeJSON gives the same responses, under an exact
// Content-Length.
func TestExtractHandlerBytes(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	corpus := s.state.Load().corpus
	ctx := context.Background()
	hosts := []string{"as7018-pod42.serve3.net", "lo0.rt1.serve3.net", "unknown.example.org", `as5-pod6.serve1.net<&>"`, "as9\u2028pod1.serve2.net"}

	checkReply := func(w *httptest.ResponseRecorder, want []byte) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %q", w.Code, w.Body.String())
		}
		if got := w.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("body:\n got %q\nwant %q", got, want)
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Errorf("Content-Length = %q, want %d", cl, w.Body.Len())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
	}

	for _, host := range hosts {
		m, _ := corpus.Extract(ctx, host)
		checkReply(doReq(t, h, "GET", "/extract?host="+url.QueryEscape(host), ""), jsonOracle(toResponse(host, m)))
	}

	results, err := corpus.ExtractBatch(ctx, hosts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]extractResponse, len(hosts))
	for i, res := range results {
		want[i] = toResponse(hosts[i], res)
	}
	checkReply(doReq(t, h, "POST", "/extract", strings.Join(hosts, "\n")+"\n"), jsonOracle(want))
}

func TestHostParam(t *testing.T) {
	for _, q := range []string{
		"", "host=", "host", "host=a.example", "x=1&host=a.example&host=b.example",
		"host=a%2Eexample", "host=a+b", "host=%zz&host=second", "ho%73t=keyed", "ho%zzst=x&host=y",
		"host=a;b&host=c", "host=a&b;c", "h+ost=x", "host+=x", "&&host=x", "host==x",
		"host=first&ho%73t=second", "=host&host=z", "HOST=x", "host=%", "host=%2",
	} {
		v, _ := url.ParseQuery(q)
		if got, want := HostParam(q), v.Get("host"); got != want {
			t.Errorf("HostParam(%q) = %q, want %q", q, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { HostParam("x=1&host=as7-pod9.cluster3.net") }); n != 0 {
		t.Errorf("literal host= lookup allocates %v times, want 0", n)
	}
}

func FuzzHostParam(f *testing.F) {
	for _, q := range []string{"host=a.example", "a=1&host=%41+b", "ho%73t=x;y&host=z", "host=%zz&host=ok"} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		v, _ := url.ParseQuery(q)
		if got, want := HostParam(q), v.Get("host"); got != want {
			t.Fatalf("HostParam(%q) = %q, want %q", q, got, want)
		}
	})
}

// TestReadBody: a declared length within the cap is read into one
// exact buffer; chunked bodies, lying lengths and over-cap bodies read
// as io.ReadAll over the capped reader would.
func TestReadBody(t *testing.T) {
	const max = 64
	body := strings.Repeat("as1-pod2.serve0.net\n", 3)
	req := func(b string, length int64) *http.Request {
		r := httptest.NewRequest("POST", "/extract", io.NopCloser(strings.NewReader(b)))
		r.ContentLength = length
		return r
	}
	for _, c := range []struct {
		name   string
		body   string
		length int64
		want   string
	}{
		{"declared", body, int64(len(body)), body},
		{"chunked", body, -1, body},
		{"empty", "", 0, ""},
		{"short declaration", body, 4, body},
		{"over cap chunked", strings.Repeat("x", 3*max), -1, strings.Repeat("x", max+1)},
		{"over cap declared", strings.Repeat("x", 3*max), 3 * max, strings.Repeat("x", max+1)},
	} {
		got, err := ReadBody(req(c.body, c.length), max)
		if err != nil || string(got) != c.want {
			t.Errorf("%s: ReadBody = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
	if got, _ := ReadBody(req(body, int64(len(body))), max); cap(got) != len(body)+1 {
		t.Errorf("declared body read into cap %d, want %d", cap(got), len(body)+1)
	}
}

// TestBatchBodyReads: the batch handler answers a chunked body as it
// answers a declared one, and rejects an over-cap body either way.
func TestBatchBodyReads(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBatchBytes = 64 })
	h := s.Handler()
	post := func(body string, length int64) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/extract", io.NopCloser(strings.NewReader(body)))
		r.ContentLength = length
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	body := "as100-pod1.serve0.net\nas200-pod2.serve1.net\n"
	declared, chunked := post(body, int64(len(body))), post(body, -1)
	if declared.Code != http.StatusOK || chunked.Code != http.StatusOK || declared.Body.String() != chunked.Body.String() {
		t.Errorf("declared %d %q, chunked %d %q: want equal 200s", declared.Code, declared.Body.String(), chunked.Code, chunked.Body.String())
	}
	big := strings.Repeat("as1-pod2.serve0.net\n", 10)
	for _, length := range []int64{int64(len(big)), -1} {
		w := post(big, length)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "exceeds 64-byte cap") {
			t.Errorf("over-cap body (length %d) = %d %q, want 400 naming the cap", length, w.Code, w.Body.String())
		}
	}
}
