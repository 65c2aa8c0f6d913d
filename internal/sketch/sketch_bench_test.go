package sketch

import "testing"

func BenchmarkInsertValue100(b *testing.B) {
	s := New(DefaultParams)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.insertValue(uint64(i), 100)
	}
}

func BenchmarkHashID(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= HashID(uint64(i))
	}
	_ = sink
}

func BenchmarkClone(b *testing.B) {
	s := New(DefaultParams)
	for i := 0; i < 1000; i++ {
		s.Insert(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}
