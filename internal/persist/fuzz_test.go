package persist

// fuzz_test.go fuzzes the WAL frame parser — the one piece of the
// durability stack that must digest arbitrary bytes (a crashed writer can
// leave any tail). The contract under fuzz: never panic, never return a
// record that did not pass its length and CRC checks, always report a
// clean offset that is a real frame boundary, and be idempotent — parsing
// the clean prefix again must yield the same records and no tear, because
// LoadWAL truncates to that offset and the next recovery parses the result.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzWALBytes builds a valid two-record WAL image for the fuzz corpus.
func fuzzWALBytes(tb testing.TB, id string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	buf.Write(headerFrame(id))
	for _, rec := range []*WALRecord{walEvent(1), walEvent(2)} {
		b, err := frame(rec)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func FuzzLoadWAL(f *testing.F) {
	const id = "s-000001"
	valid := fuzzWALBytes(f, id)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-frame
	f.Add(valid[:9])            // torn tail mid-header
	f.Add([]byte{})
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/2] ^= 0x20
	f.Add(bitflip)
	// Oversized length prefix: claims a payload far past EOF.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFF0)
	f.Add(huge)
	f.Add(append(append([]byte(nil), valid...), huge...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, torn, err := parseWAL(data, id)
		if err != nil {
			// Refusal (foreign header, mid-file garbage) is a valid outcome;
			// the file is handed to the operator instead of being replayed.
			return
		}
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if !torn && clean != int64(len(data)) {
			t.Fatalf("no tear reported but clean offset %d < len %d", clean, len(data))
		}
		for i, r := range recs {
			if r == nil {
				t.Fatalf("record %d is nil", i)
			}
			if r.Kind == WALHeader {
				t.Fatalf("header record leaked into the replay stream at %d", i)
			}
		}
		// Idempotence: what LoadWAL would truncate to must re-parse to the
		// same records with no tear — recovery after recovery sees one truth.
		recs2, clean2, torn2, err2 := parseWAL(data[:clean], id)
		if err2 != nil {
			t.Fatalf("clean prefix failed to re-parse: %v", err2)
		}
		if torn2 || clean2 != clean || len(recs2) != len(recs) {
			t.Fatalf("re-parse diverged: torn=%v clean=%d records=%d, want torn=false clean=%d records=%d",
				torn2, clean2, len(recs2), clean, len(recs))
		}
	})
}
