package openflow

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"tango/internal/flowtable"
)

// segments is a stream that hands over one segment per Read, the way a
// socket delivers what each write of the peer put on the wire. reads counts
// the calls that returned data.
type segments struct {
	segs  [][]byte
	reads int
}

func (s *segments) Read(p []byte) (int, error) {
	for len(s.segs) > 0 && len(s.segs[0]) == 0 {
		s.segs = s.segs[1:]
	}
	if len(s.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.segs[0])
	s.segs[0] = s.segs[0][n:]
	s.reads++
	return n, nil
}

// pending is how many bytes the stream has yet to deliver.
func (s *segments) pending() (n int) {
	for _, seg := range s.segs {
		n += len(seg)
	}
	return n
}

// unread returns every byte the reader has not consumed: what it still
// buffers plus what the stream has not delivered.
func unread(t *testing.T, rd *Reader) []byte {
	t.Helper()
	rest, err := io.ReadAll(rd.br)
	if err != nil {
		t.Fatal(err)
	}
	return rest
}

// wires renders messages as their wire bytes, for failure output.
func wires(ms []Message) (out [][]byte) {
	for _, m := range ms {
		out = append(out, m.Marshal(nil))
	}
	return out
}

// TestReaderFraming is the reader's contract, one row per way a stream can
// be cut: where it ends decides between io.EOF and io.ErrUnexpectedEOF
// (Server.Serve keeps the first silent and counts the second), a bad frame
// costs nothing past itself, and how the bytes were segmented never shows.
func TestReaderFraming(t *testing.T) {
	fm := &FlowMod{Header: Header{2}, Match: flowtable.ExactProbeMatch(3), Command: FlowAdd, Priority: 9, Actions: flowtable.Output(1)}
	echo := &EchoRequest{Header{4}, []byte("tango")}
	fmb, echob := fm.Marshal(nil), echo.Marshal(nil)
	shortLen := []byte{Version, byte(TypeHello), 0, 4, 0, 0, 0, 0}
	badType := []byte{Version, 200, 0, 8, 0, 0, 0, 9}
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }

	for _, tc := range []struct {
		name    string
		segs    [][]byte
		want    []Message
		wantErr error  // matched with errors.Is when non-nil
		errText string // else a substring of the error
		rest    []byte // bytes left unconsumed when the error is returned
		reads   int    // data-bearing reads of the stream; 0 = unchecked
	}{
		{name: "zero bytes", wantErr: io.EOF},
		{name: "clean close after a frame", segs: [][]byte{fmb}, want: []Message{fm}, wantErr: io.EOF, reads: 1},
		{name: "header only", segs: [][]byte{fmb[:8]}, wantErr: io.ErrUnexpectedEOF, rest: fmb[:8]},
		{name: "half a header", segs: [][]byte{fmb[:3]}, wantErr: io.ErrUnexpectedEOF, rest: fmb[:3]},
		{name: "header and half a body", segs: [][]byte{echob, fmb[:40]}, want: []Message{echo}, wantErr: io.ErrUnexpectedEOF, rest: fmb[:40]},
		{name: "length below the header size", segs: [][]byte{cat(echob, shortLen, fmb)}, want: []Message{echo},
			errText: "implausible message length 4", rest: cat(shortLen, fmb)},
		{name: "frame that fails Decode", segs: [][]byte{cat(echob, badType, fmb)}, want: []Message{echo},
			errText: "unsupported message type 200", rest: fmb},
		{name: "two frames in one segment", segs: [][]byte{cat(fmb, echob)}, want: []Message{fm, echo}, wantErr: io.EOF, reads: 1},
		{name: "one frame across three segments", segs: [][]byte{fmb[:5], fmb[5:50], cat(fmb[50:], echob)},
			want: []Message{fm, echo}, wantErr: io.EOF, reads: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &segments{segs: tc.segs}
			rd := NewReader(src)
			var got []Message
			var err error
			for {
				var frame []byte
				if frame, err = rd.ReadFrame(); err != nil {
					break
				}
				var m Message
				if m, err = Decode(frame); err != nil {
					break
				}
				got = append(got, m)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("messages = %x, want %x", wires(got), wires(tc.want))
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && !strings.Contains(err.Error(), tc.errText) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.errText)
			}
			if tc.reads != 0 && src.reads != tc.reads {
				t.Fatalf("stream read %d times, want %d", src.reads, tc.reads)
			}
			if rest := unread(t, rd); !bytes.Equal(rest, tc.rest) {
				t.Fatalf("left unconsumed %x, want %x", rest, tc.rest)
			}
		})
	}
}
