package openflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Reader frames and decodes the OpenFlow messages arriving on one end of a
// connection. It reads the connection through a single MaxMessageLen buffer,
// so one read of the underlying stream delivers every frame the peer has
// coalesced into it, and each message is decoded straight out of that buffer.
// Decode copies every byte a message keeps, so returned messages are
// caller-owned and stay valid across later calls. A Reader is not safe for
// concurrent use.
type Reader struct {
	br *bufio.Reader
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxMessageLen)}
}

// ReadMessage decodes the next message. A stream that ends at a frame
// boundary returns io.EOF; one that ends inside a frame — header or body —
// returns io.ErrUnexpectedEOF, which is how a server tells a peer that hung
// up from one that died mid-message. An implausible length field is reported
// with nothing consumed (the stream cannot be re-framed past it); a frame
// that fails Decode is consumed, and nothing after it is.
func (r *Reader) ReadMessage() (Message, error) {
	hdr, err := r.br.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen {
		return nil, fmt.Errorf("openflow: implausible message length %d", length)
	}
	frame, err := r.br.Peek(length)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	msg, err := Decode(frame)
	// Cannot fail: the frame was just peeked.
	_, _ = r.br.Discard(length)
	return msg, err
}
