package block

import "testing"

func BenchmarkChecksum(b *testing.B) {
	blk := Block{Origin: 123, Dest: 456}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= blk.Checksum()
	}
	_ = sink
}
