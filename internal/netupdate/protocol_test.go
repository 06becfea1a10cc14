package netupdate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// frame builds a wire message for tests.
func frame(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMsg(w, typ, payload); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hostileFrame claims a payload of n bytes but carries only body.
func hostileFrame(typ byte, n uint64, body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(typ)
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], n)
	buf.Write(tmp[:k])
	buf.Write(body)
	return buf.Bytes()
}

func TestReadMsgRejectsOversizeLengthPrefix(t *testing.T) {
	data := hostileFrame(msgDelta, uint64(maxMessage)+1, nil)
	_, err := readMsg(bufio.NewReader(bytes.NewReader(data)), msgDelta)
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("error = %v, want ErrMessageTooLarge", err)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("error = %v, want it to also wrap ErrProtocol", err)
	}
}

func TestReadMsgHostileLengthPrefixDoesNotPreallocate(t *testing.T) {
	// A length prefix is a claim, not an allocation instruction: a peer
	// announcing 512 MiB but sending 4 bytes must cost us roughly one
	// chunk of memory, not 512 MiB. This test fails against the old
	// readMsg, which did make([]byte, n) straight from the wire.
	const claim = 512 << 20
	data := hostileFrame(msgDelta, claim, []byte("tiny"))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMsg(bufio.NewReader(bytes.NewReader(data)), msgDelta)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 512 MiB claim accepted")
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("error = %v, want ErrProtocol", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("hostile length prefix allocated %d bytes up front", alloc)
	}
}

func TestReadPayloadLargeMessageStillWorks(t *testing.T) {
	// Legitimate multi-chunk payloads cross the chunked path intact.
	payload := make([]byte, payloadChunk*2+payloadChunk/2)
	for k := range payload {
		payload[k] = byte(k * 31)
	}
	data := frame(msgDelta, payload)
	got, err := readMsg(bufio.NewReader(bytes.NewReader(data)), msgDelta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-chunk payload corrupted")
	}
}

func TestHelloFlagRoundTrip(t *testing.T) {
	for _, h := range []hello{
		{Updating: true, WantFull: true, ImageCRC: 1, ImageLen: 2, Capacity: 3},
		{WantFull: true, ImageLen: 9, Capacity: 9},
	} {
		got, err := decodeHello(encodeHello(h))
		if err != nil || got != h {
			t.Fatalf("hello round trip: %+v, %v", got, err)
		}
	}
	// Unknown flag bits are a protocol violation (likely corruption).
	bad := encodeHello(hello{ImageLen: 1, Capacity: 1})
	bad[0] |= 0x80
	if _, err := decodeHello(bad); !errors.Is(err, ErrProtocol) {
		t.Fatalf("corrupt hello flags: %v", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, ok := range []bool{true, false} {
		got, err := decodeAck(encodeAck(ok))
		if err != nil || got != ok {
			t.Fatalf("ack round trip: %v, %v", got, err)
		}
	}
	if _, err := decodeAck(nil); !errors.Is(err, ErrProtocol) {
		t.Fatal("short ack accepted")
	}
}
