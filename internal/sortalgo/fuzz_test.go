package sortalgo

import (
	"bytes"
	"testing"

	"github.com/fg-go/fg/records"
)

// FuzzSortRecords holds the radix sort to the tests' stable comparison sort,
// byte for byte, on whatever records the bytes spell. raw[0] picks the record
// size; each record's key is width = 1 + raw[1]%8 bytes of the input, read as
// a number and shifted up by raw[1]/8 bits. The bits above stay zero, so the
// records share a prefix of 64 - 8*width - shift bits or more — mid-byte
// whenever the shift is not a multiple of 8, and leaving fewer than 16 bits
// to the key's end when width is 1 and the shift under 8. Keys wider than
// two bytes can tie on the whole 16-bit window after the prefix while
// differing below it. Sparse ties are finished by the top-level insertion
// sweep; dense ones, and those left when the sweep runs out of moves (the
// window's two bytes equal in every key), a group at a time, where a tie of
// more than 32 records makes the sort recurse. Records carry their input
// position and a payload that varies along the record, so an unstable, short
// or misplaced record move shows. The checked-in corpus is in
// testdata/fuzz/FuzzSortRecords.
func FuzzSortRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		format := records.NewFormat(sortSizes[int(raw[0])%len(sortSizes)])
		width, shift := 1+int(raw[1])%records.KeySize, raw[1]/records.KeySize
		keys := make([]uint64, len(raw[2:])/width)
		for i := range keys {
			for _, b := range raw[2+i*width:][:width] {
				keys[i] = keys[i]<<8 | uint64(b)
			}
			keys[i] <<= shift
		}
		n := len(keys)
		data := recordsFromKeys(format, keys)
		for i := range data {
			if i%format.Size >= 2*records.KeySize { // past the key and the id
				data[i] = byte(i * 131)
			}
		}
		oracle := bytes.Clone(data)
		stableSort(format, oracle, 0)
		SortRecords(format, data, make([]byte, len(data)))
		if !bytes.Equal(data, oracle) {
			t.Fatalf("size=%d width=%d shift=%d n=%d: radix sort disagrees with comparison sort", format.Size, width, shift, n)
		}
	})
}
