package cluster

// The router's one way to talk to a node: a small HTTP/1.1 client over
// per-member pools of kept-alive connections. Forwards, probes, status
// reads, and every rollout phase go through roundTrip, which writes the
// request and reads the reply on the calling goroutine — no transport
// goroutines, no per-request hand-offs, no URL formatting and parsing.

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// maxIdleConns bounds each member's pool of kept-alive connections.
// Connections opened beyond it under a burst are closed on return.
const maxIdleConns = 16

// maxAckBytes caps the reply body of probes and rollout calls, which is
// read only for error text.
const maxAckBytes = 4096

// errBadTarget rejects a request whose path or query would break the
// request line: the router never writes a space or control byte to a
// node.
var errBadTarget = errors.New("cluster: request target contains a space or control byte")

// nodeDialer dials every node connection; https members wrap it in TLS.
var nodeDialer net.Dialer

// aLongTimeAgo is the deadline that unblocks a connection's pending I/O
// when the call's context ends.
var aLongTimeAgo = time.Unix(1, 0)

// nodeReply is one buffered node response.
type nodeReply struct {
	status int
	header http.Header
	body   []byte
}

// nodeConn is one kept-alive connection to a member.
type nodeConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// roundTrip sends one request to m and reads the reply on the calling
// goroutine, buffering at most limit body bytes. The context's
// cancellation and deadline reach the socket through SetDeadline. The
// connection goes back to m's pool only when the reply was read whole,
// the node did not ask to close, and the context did not fire. A
// kept-alive connection the node closed (restart, drain) before sending
// any reply byte gets one retry on a fresh dial.
func (m *member) roundTrip(ctx context.Context, method, path, rawQuery string, body []byte, limit int64) (*nodeReply, error) {
	if !validTarget(path) || !validTarget(rawQuery) {
		return nil, errBadTarget
	}
	c := m.getConn()
	reused := c != nil
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c == nil {
			var err error
			if c, err = m.dial(ctx); err != nil {
				return nil, err
			}
		}
		rep, replied, err := m.exchange(ctx, c, method, path, rawQuery, body, limit)
		switch {
		case err == nil:
			return rep, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case !reused || replied:
			return nil, err
		}
		c, reused = nil, false
	}
}

// validTarget reports whether s may appear in a request line: no space,
// no control byte.
func validTarget(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// exchange runs one request/reply on c under ctx, then pools c or
// closes it. replied reports whether any reply byte arrived.
func (m *member) exchange(ctx context.Context, c *nodeConn, method, path, rawQuery string, body []byte, limit int64) (*nodeReply, bool, error) {
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
	rep, keep, replied, err := c.send(method, m.base.Host, path, rawQuery, body, limit)
	if stop() && keep {
		m.putConn(c)
	} else {
		c.Close()
	}
	return rep, replied, err
}

// send writes one request on c and reads the reply. keep reports
// whether c may carry another request; replied whether any reply byte
// arrived (a kept-alive connection that fails before that is safe to
// retry).
func (c *nodeConn) send(method, host, path, rawQuery string, body []byte, limit int64) (rep *nodeReply, keep, replied bool, err error) {
	bw := c.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(path)
	if rawQuery != "" {
		bw.WriteByte('?')
		bw.WriteString(rawQuery)
	}
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	if method != http.MethodGet {
		bw.WriteString("\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(body)), 10))
	}
	bw.WriteString("\r\n\r\n")
	bw.Write(body)
	if err := bw.Flush(); err != nil {
		return nil, false, false, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, false, true, err
	}
	rep = &nodeReply{status: resp.StatusCode, header: resp.Header}
	keep = !resp.Close
	if n := resp.ContentLength; n >= 0 && n <= limit {
		rep.body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, rep.body)
	} else {
		// Chunked or close-delimited: read to EOF so the connection
		// ends on a message boundary, or drop it past the cap.
		rep.body, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if int64(len(rep.body)) > limit {
			rep.body, keep = rep.body[:limit], false
		}
	}
	if err != nil {
		return nil, false, true, err
	}
	return rep, keep, true, nil
}

// dial opens a fresh connection to m, through TLS for https members.
func (m *member) dial(ctx context.Context) (*nodeConn, error) {
	var c net.Conn
	var err error
	if m.base.Scheme == "https" {
		d := tls.Dialer{NetDialer: &nodeDialer}
		c, err = d.DialContext(ctx, "tcp", m.addr)
	} else {
		c, err = nodeDialer.DialContext(ctx, "tcp", m.addr)
	}
	if err != nil {
		return nil, err
	}
	return &nodeConn{Conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// getConn takes the most recently returned idle connection, or nil.
func (m *member) getConn() *nodeConn {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	n := len(m.idle)
	if n == 0 {
		return nil
	}
	c := m.idle[n-1]
	m.idle[n-1] = nil
	m.idle = m.idle[:n-1]
	return c
}

// putConn returns c to the pool, or closes it when the pool is full or
// the member has left.
func (m *member) putConn(c *nodeConn) {
	m.poolMu.Lock()
	pooled := !m.closed && len(m.idle) < maxIdleConns
	if pooled {
		m.idle = append(m.idle, c)
	}
	m.poolMu.Unlock()
	if !pooled {
		c.Close()
	}
}

// closeConns closes every idle connection and makes the pool refuse
// returns, so connections still in flight are closed when they finish.
func (m *member) closeConns() {
	m.poolMu.Lock()
	idle := m.idle
	m.idle, m.closed = nil, true
	m.poolMu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
