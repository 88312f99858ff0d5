package serve

// The /extract wire format, shared by the node and the router: the host
// query parameter, the batch body read, and the response encoder. The
// encoder appends the fixed-shape response directly; its bytes are
// exactly what writeJSON renders for the same value (pinned by
// FuzzExtractResponseEncoding), so clients and greps see no change.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// jsonContentType is the Content-Type value of every /extract reply,
// shared so setting the header does not allocate.
var jsonContentType = []string{"application/json"}

// writeExtract sends an encoded /extract reply with an exact
// Content-Length in one Write.
func writeExtract(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// appendResponse appends r as writeJSON renders it, nested at indent:
// the struct's key order and omitempty rules, two-space indentation,
// no trailing newline.
func appendResponse(b []byte, r extractResponse, indent string) []byte {
	b = append(b, "{\n"...)
	b = append(b, indent...)
	b = append(b, `  "hostname": `...)
	b = appendString(b, r.Hostname)
	b = appendKey(b, indent, "found")
	b = strconv.AppendBool(b, r.Found)
	if r.ASN != 0 {
		b = appendKey(b, indent, "asn")
		b = strconv.AppendUint(b, uint64(r.ASN), 10)
	}
	if r.Suffix != "" {
		b = appendKey(b, indent, "suffix")
		b = appendString(b, r.Suffix)
	}
	if r.Class != "" {
		b = appendKey(b, indent, "class")
		b = appendString(b, r.Class)
	}
	if r.Digits != "" {
		b = appendKey(b, indent, "digits")
		b = appendString(b, r.Digits)
	}
	b = append(b, '\n')
	b = append(b, indent...)
	return append(b, '}')
}

// appendBatch appends n > 0 responses, the i-th from resp(i), as
// writeJSON renders the []extractResponse holding them, trailing
// newline included.
func appendBatch(b []byte, n int, resp func(i int) extractResponse) []byte {
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  "...)
		b = appendResponse(b, resp(i), "  ")
	}
	return append(b, "\n]\n"...)
}

// appendKey starts the next member of an object nested at indent.
func appendKey(b []byte, indent, key string) []byte {
	b = append(b, ",\n"...)
	b = append(b, indent...)
	b = append(b, `  "`...)
	b = append(b, key...)
	return append(b, `": `...)
}

// appendString appends s as a JSON string. Printable ASCII other than
// the bytes encoding/json escapes is copied as-is; anything else goes
// through json.Marshal, which owns HTML escaping, invalid UTF-8 and
// U+2028/U+2029.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// HostParam returns the first "host" value of a raw query, exactly as
// url.ParseQuery(rawQuery).Get("host") does, without building the map:
// a literal host= pair whose value needs no unescaping is returned as a
// substring of rawQuery.
func HostParam(rawQuery string) string {
	for q := rawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			continue // ParseQuery drops pairs holding a semicolon
		}
		key, value, _ := strings.Cut(pair, "=")
		if key != "host" {
			if !strings.ContainsAny(key, "%+") {
				continue
			}
			if k, err := url.QueryUnescape(key); err != nil || k != "host" {
				continue
			}
		}
		if !strings.ContainsAny(value, "%+") {
			return value
		}
		if v, err := url.QueryUnescape(value); err == nil {
			return v
		}
	}
	return ""
}

// ReadBody reads at most maxBytes+1 bytes of r's body, so the caller
// can tell an over-cap body by its length. A body with a declared
// length within the cap is read into one buffer of that size; a chunked
// or over-cap one grows as io.ReadAll does.
func ReadBody(r *http.Request, maxBytes int64) ([]byte, error) {
	size := int64(512)
	if n := r.ContentLength; n >= 0 && n <= maxBytes {
		size = n + 1 // room for the read that sees EOF
	}
	b := make([]byte, 0, size)
	lr := io.LimitReader(r.Body, maxBytes+1)
	for {
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
