package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// bodyRequest builds a POST whose Content-Length is honest, absent
// (chunked) or understated, the three ways a client can present a
// body.
func bodyRequest(path, body, declared string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	switch declared {
	case "chunked":
		r.ContentLength = -1
		r.TransferEncoding = []string{"chunked"}
	case "understated":
		r.ContentLength = 10
	}
	return r
}

var declaredLengths = []string{"honest", "chunked", "understated"}

// TestReadBody: a body within the cap reads whole however its length
// is declared, and an honest length sizes the buffer exactly.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, declared := range declaredLengths {
		r := bodyRequest("/run", body, declared)
		got, err := ReadBody(httptest.NewRecorder(), r, 4096)
		if err != nil || string(got) != body {
			t.Fatalf("%s: read %d bytes, %v", declared, len(got), err)
		}
		if declared == "honest" && cap(got) != len(body)+1 {
			t.Errorf("honest length: buffer cap %d, want %d", cap(got), len(body)+1)
		}
	}
}

// stalledBody is a body whose bytes never arrive: its first Read
// records the room it was given and reports the connection gone.
type stalledBody struct{ room int }

func (b *stalledBody) Read(p []byte) (int, error) {
	b.room = len(p)
	return 0, io.ErrUnexpectedEOF
}

// TestReadBodyPresizeBound: a request that declares the largest body
// the cap allows and sends none gets a buffer of at most maxPresize
// bytes, not the declared length; a body that long still reads whole
// once its bytes arrive.
func TestReadBodyPresizeBound(t *testing.T) {
	const limit = 8 << 20
	body := &stalledBody{}
	r := httptest.NewRequest(http.MethodPost, "/run", body)
	r.ContentLength = limit
	if _, err := ReadBody(httptest.NewRecorder(), r, limit); err == nil {
		t.Fatal("stalled body read without error")
	}
	if body.room == 0 || body.room > maxPresize {
		t.Errorf("stalled body declaring %d bytes was given a %d-byte buffer, want at most %d", limit, body.room, maxPresize)
	}

	long := strings.Repeat("x", 3*maxPresize)
	got, err := ReadBody(httptest.NewRecorder(), bodyRequest("/run", long, "honest"), limit)
	if err != nil || string(got) != long {
		t.Fatalf("long honest body: read %d of %d bytes, %v", len(got), len(long), err)
	}
}

// TestServeBodyOverCap: a body over MaxBodyBytes is a 413 on /run and
// /batch whether its Content-Length is honest, absent or understated —
// the length only sizes the buffer, it never bounds the read.
func TestServeBodyOverCap(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	body := strings.Repeat("x", 200)
	for _, path := range []string{"/run", "/batch"} {
		for _, declared := range declaredLengths {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, bodyRequest(path, body, declared))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %s length: status %d, want 413", path, declared, rec.Code)
			}
		}
	}
}
