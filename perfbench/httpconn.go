package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection of a serve client. It
// writes GET requests and reads replies with a fixed-size body by hand,
// so the load generator spends far less CPU per request than net/http's
// client would on the two cores it shares with the server.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	req  []byte
}

func dial(base string) (*conn, error) {
	host := strings.TrimPrefix(base, "http://")
	c, err := net.DialTimeout("tcp", host, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 16<<10), host: host}, nil
}

func (k *conn) Close() error { return k.c.Close() }

// get sends GET path and reads the reply body into buf. It returns the
// body, the X-Cache header and an error for anything but a 200 reply
// with a Content-Length.
func (k *conn) get(path string, buf *bytes.Buffer) ([]byte, string, error) {
	k.req = append(k.req[:0], "GET "...)
	k.req = append(k.req, path...)
	k.req = append(k.req, " HTTP/1.1\r\nHost: "...)
	k.req = append(k.req, k.host...)
	k.req = append(k.req, "\r\n\r\n"...)
	if err := k.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return nil, "", err
	}
	if _, err := k.c.Write(k.req); err != nil {
		return nil, "", err
	}
	status, err := k.r.ReadSlice('\n')
	if err != nil {
		return nil, "", err
	}
	ok := bytes.HasPrefix(status, []byte("HTTP/1.1 200 "))
	statusLine := string(bytes.TrimSpace(status))
	length, cache := -1, ""
	for {
		line, err := k.r.ReadSlice('\n')
		if err != nil {
			return nil, "", err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return nil, "", fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("X-Cache")):
			cache = string(value)
		}
	}
	if length < 0 {
		return nil, "", fmt.Errorf("%s: reply without Content-Length", statusLine)
	}
	buf.Reset()
	if _, err := io.CopyN(buf, k.r, int64(length)); err != nil {
		return nil, "", err
	}
	if !ok {
		return nil, "", fmt.Errorf("%s: %s", statusLine, strings.TrimSpace(buf.String()))
	}
	return buf.Bytes(), cache, nil
}
