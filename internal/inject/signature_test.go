package inject

import (
	"testing"

	"repro/internal/logic"
)

func fillSignature(cols, rows int, flip func(r, c int) bool) *signature {
	s := newSignature(cols, rows)
	for r := 0; r < rows; r++ {
		row := s.addRow()
		for c := range row {
			v := logic.L0
			if flip != nil && flip(r, c) {
				v = logic.L1
			}
			row[c] = v
		}
	}
	return s
}

func TestSignatureSlab(t *testing.T) {
	const cols, rows = 7, 40
	s := fillSignature(cols, rows, func(r, c int) bool { return (r+c)%3 == 0 })
	if s.rows() != rows {
		t.Fatalf("rows() = %d, want %d", s.rows(), rows)
	}
	for r := 0; r < rows; r++ {
		row := s.row(r)
		if len(row) != cols {
			t.Fatalf("row %d has %d cols, want %d", r, len(row), cols)
		}
		for c := range row {
			want := logic.L0
			if (r+c)%3 == 0 {
				want = logic.L1
			}
			if row[c] != want {
				t.Fatalf("row %d col %d = %v, want %v", r, c, row[c], want)
			}
		}
	}
}

func TestSignatureGrowsPastCapacityHint(t *testing.T) {
	s := newSignature(4, 2) // hint is two rows; add four
	for r := 0; r < 4; r++ {
		row := s.addRow()
		for c := range row {
			row[c] = logic.V(uint8(r) % 4)
		}
	}
	if s.rows() != 4 {
		t.Fatalf("rows() = %d, want 4", s.rows())
	}
	for r := 0; r < 4; r++ {
		if s.row(r)[0] != logic.V(uint8(r)%4) {
			t.Fatalf("row %d corrupted after growth", r)
		}
	}
}

// BenchmarkSignatureCapture measures building a full run signature row by
// row, the allocation pattern of every cold injection run.
func BenchmarkSignatureCapture(b *testing.B) {
	const cols, rows = 64, 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newSignature(cols, rows)
		for r := 0; r < rows; r++ {
			row := s.addRow()
			for c := range row {
				row[c] = logic.L1
			}
		}
		if s.rows() != rows {
			b.Fatal("short signature")
		}
	}
}
