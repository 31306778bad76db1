package cluster

import (
	"encoding/binary"
	"fmt"
)

// The TCP transport's wire format: every message is one length-prefixed
// binary frame. The layout is fixed-width big-endian, so a frame can be
// decoded with two reads (header, then payload) and no intermediate parsing
// state:
//
//	[0:4]   uint32  body length (frameBodyLen + payload bytes)
//	[4]     uint8   kind: 1 = data, 2 = abort
//	[5]     uint8   flags: bit 0 = any-source delivery
//	[6:10]  uint32  source rank
//	[10:14] uint32  destination rank
//	[14:22] uint64  tag
//	[22:30] uint64  transfer ID
//	[30:]   payload
//
// The decoder is strict: unknown kinds, undefined flag bits, oversized
// lengths, ranks above MaxInt32, and abort frames carrying a payload are
// all errors, never best-effort guesses — a corrupt or adversarial stream
// must produce a clean frameError, not a panic or a silent misdelivery.
// Strictness also makes the encoding canonical: any byte string the
// decoder accepts re-encodes to exactly itself, the property FuzzFrameCodec
// checks.
const (
	frameKindData  = 1
	frameKindAbort = 2

	frameFlagAny = 1 << 0

	// frameBodyLen is the fixed portion of the body (everything after the
	// length prefix, before the payload).
	frameBodyLen = 26
	// frameHeaderLen is the full header: length prefix plus fixed body.
	frameHeaderLen = 4 + frameBodyLen

	// maxFramePayload bounds a single message; a corrupt length prefix must
	// not make a reader allocate gigabytes.
	maxFramePayload = 1 << 30
)

// A frameError reports a malformed frame.
type frameError struct{ reason string }

func (e *frameError) Error() string { return "cluster: bad frame: " + e.reason }

// encodeFrameHeader fills hdr with the header for a frame of the given
// kind.
func encodeFrameHeader(hdr *[frameHeaderLen]byte, kind byte, f Frame) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameBodyLen+len(f.Data)))
	hdr[4] = kind
	hdr[5] = 0
	if f.Any {
		hdr[5] |= frameFlagAny
	}
	binary.BigEndian.PutUint32(hdr[6:10], uint32(f.Src))
	binary.BigEndian.PutUint32(hdr[10:14], uint32(f.Dst))
	binary.BigEndian.PutUint64(hdr[14:22], uint64(f.Tag))
	binary.BigEndian.PutUint64(hdr[22:30], uint64(f.Xfer))
}

// appendFrame appends the full wire form of a frame to dst.
func appendFrame(dst []byte, kind byte, f Frame) []byte {
	var hdr [frameHeaderLen]byte
	encodeFrameHeader(&hdr, kind, f)
	dst = append(dst, hdr[:]...)
	return append(dst, f.Data...)
}

// decodeFrameBody parses the body of a frame (everything after the 4-byte
// length prefix), given as its fixed part and its payload, which becomes
// the returned Frame's Data.
func decodeFrameBody(fixed *[frameBodyLen]byte, payload []byte) (kind byte, f Frame, err error) {
	kind = fixed[0]
	if kind != frameKindData && kind != frameKindAbort {
		return 0, Frame{}, &frameError{fmt.Sprintf("unknown kind %d", kind)}
	}
	flags := fixed[1]
	if flags&^frameFlagAny != 0 {
		return 0, Frame{}, &frameError{fmt.Sprintf("undefined flag bits %#x", flags)}
	}
	src := binary.BigEndian.Uint32(fixed[2:6])
	dst := binary.BigEndian.Uint32(fixed[6:10])
	if src > 1<<31-1 || dst > 1<<31-1 {
		return 0, Frame{}, &frameError{"rank overflows int32"}
	}
	f = Frame{
		Src:  int(src),
		Dst:  int(dst),
		Tag:  int64(binary.BigEndian.Uint64(fixed[10:18])),
		Xfer: int64(binary.BigEndian.Uint64(fixed[18:26])),
		Any:  flags&frameFlagAny != 0,
		Data: payload,
	}
	if kind == frameKindAbort && len(payload) != 0 {
		return 0, Frame{}, &frameError{"abort frame carries a payload"}
	}
	return kind, f, nil
}

// decodeFrame parses one complete frame (length prefix included) from the
// front of b, returning the bytes consumed. The returned Frame's Data
// aliases b.
func decodeFrame(b []byte) (kind byte, f Frame, n int, err error) {
	if len(b) < frameHeaderLen {
		return 0, Frame{}, 0, &frameError{fmt.Sprintf("%d bytes, need >= %d", len(b), frameHeaderLen)}
	}
	bodyLen := binary.BigEndian.Uint32(b[0:4])
	if bodyLen < frameBodyLen {
		return 0, Frame{}, 0, &frameError{fmt.Sprintf("body length %d below minimum %d", bodyLen, frameBodyLen)}
	}
	if bodyLen > frameBodyLen+maxFramePayload {
		return 0, Frame{}, 0, &frameError{fmt.Sprintf("body length %d exceeds limit", bodyLen)}
	}
	if uint64(len(b)-4) < uint64(bodyLen) {
		return 0, Frame{}, 0, &frameError{fmt.Sprintf("truncated: body %d bytes, have %d", bodyLen, len(b)-4)}
	}
	kind, f, err = decodeFrameBody((*[frameBodyLen]byte)(b[4:frameHeaderLen]), b[frameHeaderLen:4+bodyLen])
	if err != nil {
		return 0, Frame{}, 0, err
	}
	return kind, f, 4 + int(bodyLen), nil
}

// frameWireBytes is the size of a frame on the wire, the unit the
// in-flight byte budget is charged in.
func frameWireBytes(f Frame) int { return frameHeaderLen + len(f.Data) }
