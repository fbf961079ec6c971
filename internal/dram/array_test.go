package dram

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustArray(t *testing.T, rows, cols int) *Array {
	t.Helper()
	a, err := NewArray(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 8); err == nil {
		t.Error("zero rows must fail")
	}
	if _, err := NewArray(8, 0); err == nil {
		t.Error("zero cols must fail")
	}
	a := mustArray(t, 16, 32)
	if a.Rows() != 16 || a.Cols() != 32 {
		t.Error("geometry accessors wrong")
	}
}

func TestFaultFreeReadWrite(t *testing.T) {
	a := mustArray(t, 8, 8)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			v := (r+c)%2 == 0
			if err := a.Write(0, r, c, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			got, err := a.Read(1, r, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != ((r+c)%2 == 0) {
				t.Fatalf("cell (%d,%d) = %v", r, c, got)
			}
		}
	}
}

func TestCoordinateChecks(t *testing.T) {
	a := mustArray(t, 4, 4)
	if err := a.Write(0, 4, 0, true); err == nil {
		t.Error("row overflow write must error")
	}
	if _, err := a.Read(0, 0, 4); err == nil {
		t.Error("col overflow read must error")
	}
	if err := a.RefreshRow(0, -1); err == nil {
		t.Error("refresh out of range must error")
	}
}

func TestStuckAtFaults(t *testing.T) {
	a := mustArray(t, 4, 4)
	if err := a.Inject(Fault{Kind: StuckAt0, Row: 1, Col: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Inject(Fault{Kind: StuckAt1, Row: 2, Col: 2}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 1, 1, true)
	a.Write(0, 2, 2, false)
	if v, _ := a.Read(1, 1, 1); v {
		t.Error("SA0 cell must read 0")
	}
	if v, _ := a.Read(1, 2, 2); !v {
		t.Error("SA1 cell must read 1")
	}
}

func TestTransitionFaults(t *testing.T) {
	a := mustArray(t, 4, 4)
	a.Inject(Fault{Kind: TransitionUp, Row: 0, Col: 0})
	a.Write(0, 0, 0, true) // 0->1 fails
	if v, _ := a.Read(1, 0, 0); v {
		t.Error("TF-up cell must not rise")
	}
	a.Inject(Fault{Kind: TransitionDown, Row: 1, Col: 0})
	// Get a 1 into the TF-down cell: 0->1 is fine.
	a.Write(0, 1, 0, true)
	a.Write(1, 1, 0, false) // 1->0 fails
	if v, _ := a.Read(2, 1, 0); !v {
		t.Error("TF-down cell must not fall")
	}
}

func TestCouplingFault(t *testing.T) {
	a := mustArray(t, 4, 4)
	// Victim (3,3) inverts when aggressor (0,0) transitions.
	if err := a.Inject(Fault{Kind: CouplingInvert, Row: 3, Col: 3, AggRow: 0, AggCol: 0}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 3, 3, false)
	a.Write(1, 0, 0, true) // transition 0->1 on aggressor
	if v, _ := a.Read(2, 3, 3); !v {
		t.Error("victim must invert on aggressor transition")
	}
	a.Write(3, 0, 0, true) // no transition: victim unaffected
	if v, _ := a.Read(4, 3, 3); !v {
		t.Error("victim must not change without aggressor transition")
	}
}

func TestLineFaults(t *testing.T) {
	a := mustArray(t, 4, 4)
	a.Inject(Fault{Kind: BitlineStuck0, Col: 2})
	a.Inject(Fault{Kind: WordlineStuck0, Row: 1})
	a.Write(0, 0, 2, true)
	a.Write(0, 1, 3, true)
	if v, _ := a.Read(1, 0, 2); v {
		t.Error("bitline-fault column must read 0")
	}
	if v, _ := a.Read(1, 1, 3); v {
		t.Error("wordline-fault row must read 0")
	}
	if err := a.Inject(Fault{Kind: BitlineStuck0, Col: 99}); err == nil {
		t.Error("out-of-range bitline must error")
	}
	if err := a.Inject(Fault{Kind: WordlineStuck0, Row: 99}); err == nil {
		t.Error("out-of-range wordline must error")
	}
}

func TestRetentionFault(t *testing.T) {
	a := mustArray(t, 4, 4)
	if err := a.Inject(Fault{Kind: Retention, Row: 0, Col: 0, RetentionMs: 10}); err != nil {
		t.Fatal(err)
	}
	if err := a.Inject(Fault{Kind: Retention, Row: 0, Col: 1}); err == nil {
		t.Error("retention fault without retention time must error")
	}
	a.Write(0, 0, 0, true)
	// Within retention: fine.
	if v, _ := a.Read(5, 0, 0); !v {
		t.Error("cell must hold within retention")
	}
	// The read at t=5 restored the row; wait past retention now.
	if v, _ := a.Read(20, 0, 0); v {
		t.Error("cell must decay past retention")
	}
	// Decay is permanent until rewritten.
	if v, _ := a.Read(21, 0, 0); v {
		t.Error("decayed cell stays 0")
	}
}

func TestRefreshPreservesWithinRetention(t *testing.T) {
	a := mustArray(t, 4, 4)
	a.Inject(Fault{Kind: Retention, Row: 2, Col: 2, RetentionMs: 10})
	a.Write(0, 2, 2, true)
	// Refresh every 8 ms: the weak cell survives.
	for tm := 8.0; tm <= 64; tm += 8 {
		if err := a.RefreshRow(tm, 2); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := a.Read(70, 2, 2); !v {
		t.Error("weak cell must survive when refreshed inside its retention")
	}
	// Now stretch the interval beyond retention: data dies.
	a.Write(100, 2, 2, true)
	a.RefreshRow(115, 2) // 15 ms > 10 ms retention
	if v, _ := a.Read(116, 2, 2); v {
		t.Error("weak cell must die when the refresh interval exceeds retention")
	}
}

func TestInjectBounds(t *testing.T) {
	a := mustArray(t, 4, 4)
	if err := a.Inject(Fault{Kind: StuckAt0, Row: 9, Col: 0}); err == nil {
		t.Error("cell fault out of range must error")
	}
	if err := a.Inject(Fault{Kind: CouplingInvert, Row: 0, Col: 0, AggRow: 9, AggCol: 0}); err == nil {
		t.Error("aggressor out of range must error")
	}
}

func TestFaultCount(t *testing.T) {
	a := mustArray(t, 8, 8)
	if a.FaultCount() != 0 {
		t.Error("fresh array must have 0 faults")
	}
	a.Inject(Fault{Kind: StuckAt0, Row: 0, Col: 0})
	a.Inject(Fault{Kind: StuckAt1, Row: 0, Col: 0}) // stacked on same cell
	a.Inject(Fault{Kind: BitlineStuck0, Col: 3})
	a.Inject(Fault{Kind: WordlineStuck0, Row: 5})
	if a.FaultCount() != 4 {
		t.Errorf("fault count = %d, want 4", a.FaultCount())
	}
}

func TestFaultKindString(t *testing.T) {
	kinds := []FaultKind{StuckAt0, StuckAt1, TransitionUp, TransitionDown, CouplingInvert, BitlineStuck0, WordlineStuck0, Retention}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
	if !strings.Contains(FaultKind(42).String(), "42") {
		t.Error("unknown kind must embed its number")
	}
}

// Property: on a fault-free array, Read always returns the last Write.
func TestArrayReadAfterWriteProperty(t *testing.T) {
	a := mustArray(t, 32, 32)
	f := func(r8, c8 uint8, v bool) bool {
		r, c := int(r8)%32, int(c8)%32
		if err := a.Write(0, r, c, v); err != nil {
			return false
		}
		got, err := a.Read(1, r, c)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddressDecoderFault(t *testing.T) {
	a := mustArray(t, 8, 8)
	// Address (1,1) actually selects cell (5,5).
	if err := a.Inject(Fault{Kind: AddressDecoder, Row: 1, Col: 1, AggRow: 5, AggCol: 5}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 1, 1, true)
	// The data landed at (5,5), not (1,1)'s storage...
	if v, _ := a.Read(1, 5, 5); !v {
		t.Error("write must land at the decoded cell")
	}
	// ...but reading (1,1) also goes to (5,5), so it reads back fine —
	// the fault is only visible through the aliasing:
	a.Write(2, 5, 5, false) // direct write to the shared cell
	if v, _ := a.Read(3, 1, 1); v {
		t.Error("aliased address must observe the direct write")
	}
	if a.FaultCount() != 1 {
		t.Errorf("fault count = %d, want 1", a.FaultCount())
	}
}

func TestAddressDecoderInjectValidation(t *testing.T) {
	a := mustArray(t, 8, 8)
	if err := a.Inject(Fault{Kind: AddressDecoder, Row: 1, Col: 1, AggRow: 9, AggCol: 0}); err == nil {
		t.Error("out-of-range target must error")
	}
	if err := a.Inject(Fault{Kind: AddressDecoder, Row: 1, Col: 1, AggRow: 1, AggCol: 1}); err == nil {
		t.Error("self-redirect must error")
	}
}

// TestFillBackgroundMatchesPerCell pins the word-at-a-time background
// fill bit for bit to the per-cell checkerboard, over an array whose
// words start dirty, for a column count that is a multiple of 64, an
// even one that is not, and an odd one.
func TestFillBackgroundMatchesPerCell(t *testing.T) {
	for _, cols := range []int{128, 96, 67} {
		got, want := mustArray(t, 9, cols), mustArray(t, 9, cols)
		for i := range got.data {
			got.data[i] = 0x0123456789abcdef * uint64(i+1)
			want.data[i] = got.data[i]
		}
		got.fillBackground(3)
		for r := 0; r < want.rows; r++ {
			for c := 0; c < want.cols; c++ {
				want.rawSet(r, c, backgroundAt(r, c))
			}
			want.rowRestore[r] = 3
		}
		for i := range want.data {
			if got.data[i] != want.data[i] {
				t.Fatalf("cols %d: word %d is %#x, per-cell fill gives %#x", cols, i, got.data[i], want.data[i])
			}
		}
		for r, ms := range got.rowRestore {
			if ms != 3 {
				t.Fatalf("cols %d: row %d restored at %g ms, want 3", cols, r, ms)
			}
		}
	}
}
