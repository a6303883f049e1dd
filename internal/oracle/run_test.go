package oracle

import "testing"

func TestGrayRank(t *testing.T) {
	// Binary-reflected Gray sequence for 2 bits: 00,01,11,10.
	want := map[[2]int]int{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for bits, rank := range want {
		if got := grayRank(bits[:]); got != rank {
			t.Fatalf("grayRank(%v) = %d, want %d", bits, got, rank)
		}
	}
	// 3 bits: positions of 000..111 in BRGC order.
	seq := [][]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {0, 1, 0}, {1, 1, 0}, {1, 1, 1}, {1, 0, 1}, {1, 0, 0}}
	for pos, bits := range seq {
		if got := grayRank(bits); got != pos {
			t.Fatalf("grayRank(%v) = %d, want %d", bits, got, pos)
		}
	}
}
