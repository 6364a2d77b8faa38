package gossip

import (
	"testing"
)

func BenchmarkStampedEncodeDecode(b *testing.B) {
	s := Stamped{Key: "ramsey/best", Counter: 42, Unix: 123456789, Origin: "host:9000", Data: make([]byte, 256)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := encode(s)
		if _, err := decode[Stamped](enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComparators(b *testing.B) {
	a := Stamped{Counter: 5, Unix: 100, Data: []byte("aaa")}
	c := Stamped{Counter: 7, Unix: 90, Data: []byte("bbb")}
	for _, name := range []string{CmpCounter, CmpTimestamp, CmpBytes} {
		cmp, _ := LookupComparator(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cmp(a, c)
			}
		})
	}
}
