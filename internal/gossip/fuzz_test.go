package gossip

import (
	"testing"
	"testing/quick"

	"everyware/internal/wire"
)

// Property: protocol decoders survive arbitrary bytes.
func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(raw []byte) bool {
		decode[Stamped](raw)
		decode[Registration](raw)
		decode[RegTable](raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRegistrationsRejectsHugeCount(t *testing.T) {
	var e wire.Encoder
	e.PutUint32(1 << 30) // claims a billion registrations in 4 bytes
	if _, err := decode[RegTable](e.Bytes()); err == nil {
		t.Fatal("huge count must be rejected")
	}
}
