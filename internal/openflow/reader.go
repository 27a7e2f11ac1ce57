package openflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Reader frames the OpenFlow messages arriving on one end of a connection.
// It reads the connection through a single MaxMessageLen buffer, so one read
// of the underlying stream delivers every frame the peer has coalesced into
// it, and it hands each frame out where it lies in that buffer: a frame is
// valid until the next ReadFrame. Decoding it with a Decoder allocates
// nothing; Decode makes a message that outlives the frame. A Reader is not
// safe for concurrent use.
type Reader struct {
	br *bufio.Reader
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxMessageLen)}
}

// ReadFrame returns the next frame, header included, and consumes it. A
// stream that ends at a frame boundary returns io.EOF; one that ends inside a
// frame — header or body — returns io.ErrUnexpectedEOF, which is how a server
// tells a peer that hung up from one that died mid-message. An implausible
// length field is reported with nothing consumed (the stream cannot be
// re-framed past it).
func (r *Reader) ReadFrame() ([]byte, error) {
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
	// Cannot fail: the frame was just peeked. The bytes stay where they are
	// until the next Peek refills the buffer.
	_, _ = r.br.Discard(length)
	return frame[:length:length], nil
}
