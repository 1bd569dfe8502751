package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawConn is a minimal HTTP/1.1 keep-alive client for GET requests
// prebuilt as bytes. The load generator shares two CPUs with the
// daemon it measures, so it spends as little CPU per request as it
// can: no header maps, no per-request allocation beyond what a
// sampled body copy needs. It understands Content-Length and chunked
// bodies, which is all net/http servers send.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dialRaw(addr string) (*rawConn, error) {
	rc := &rawConn{addr: addr}
	return rc, rc.redial()
}

func (rc *rawConn) redial() error {
	if rc.c != nil {
		rc.c.Close()
	}
	c, err := net.DialTimeout("tcp", rc.addr, 5*time.Second)
	if err != nil {
		return err
	}
	rc.c = c
	rc.br = bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (rc *rawConn) close() {
	if rc.c != nil {
		rc.c.Close()
	}
}

// getRequest builds the request bytes for a path and query.
func getRequest(host, pathQuery string) []byte {
	return []byte("GET " + pathQuery + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
}

// do sends req and reads the response body into body (reset first),
// returning the status code. On any error the connection is redialed
// so the next request starts clean.
func (rc *rawConn) do(req []byte, body *bytes.Buffer) (int, error) {
	status, err := rc.roundTrip(req, body)
	if err != nil {
		if rerr := rc.redial(); rerr != nil {
			return 0, fmt.Errorf("%v (redial: %v)", err, rerr)
		}
	}
	return status, err
}

func (rc *rawConn) roundTrip(req []byte, body *bytes.Buffer) (int, error) {
	body.Reset()
	if err := rc.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := rc.c.Write(req); err != nil {
		return 0, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		err = readChunked(rc.br, body)
	case length >= 0:
		_, err = io.CopyN(body, rc.br, int64(length))
	default:
		err = errors.New("response has neither Content-Length nor chunked body")
	}
	return status, err
}

func readChunked(br *bufio.Reader, body *bytes.Buffer) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseInt(string(line), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n > 0 {
			if _, err := io.CopyN(body, br, n); err != nil {
				return err
			}
		}
		if _, err := br.Discard(2); err != nil { // CRLF after data
			return err
		}
		if n == 0 {
			return nil // no trailers are sent by net/http for these handlers
		}
	}
}
