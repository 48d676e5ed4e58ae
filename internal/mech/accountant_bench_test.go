package mech

import (
	"fmt"
	"testing"
)

// Accountant micro-benchmarks: Spend sits on the serving hot path (one per
// ⊤ answer) and Total behind every status read, so per-call overhead and
// allocation behavior are tracked in BENCH_<date>.json alongside the xeval
// numbers. All implementations are streaming; none may allocate per spend.

func benchCost() Cost { return Cost{Eps: 1e-4, Delta: 1e-10, Rho: 1e-9} }

func BenchmarkAccountantSpend(b *testing.B) {
	for _, name := range AccountantNames() {
		b.Run(name, func(b *testing.B) {
			a, err := NewAccountant(name, Params{Eps: 1, Delta: 1e-6})
			if err != nil {
				b.Fatal(err)
			}
			c := benchCost()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Spend(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAccountantTotal(b *testing.B) {
	for _, name := range AccountantNames() {
		for _, spends := range []int{16, 4096} {
			b.Run(fmt.Sprintf("%s/spends=%d", name, spends), func(b *testing.B) {
				a, err := NewAccountant(name, Params{Eps: 1, Delta: 1e-6})
				if err != nil {
					b.Fatal(err)
				}
				c := benchCost()
				for i := 0; i < spends; i++ {
					if err := a.Spend(c); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = a.Total()
				}
			})
		}
	}
}

func BenchmarkAccountantMaxCalls(b *testing.B) {
	for _, name := range AccountantNames() {
		b.Run(name, func(b *testing.B) {
			a, err := NewAccountant(name, Params{Eps: 1, Delta: 1e-6})
			if err != nil {
				b.Fatal(err)
			}
			c := benchCost()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.MaxCalls(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
