package dram

import (
	"fmt"
)

// FaultKind enumerates the DRAM fault models the paper's §6 calls out as
// explicitly tested for: stuck cells, transition faults, coupling
// (cross-talk), whole bit-line and word-line failures, and retention-time
// failures.
type FaultKind int

const (
	// StuckAt0 / StuckAt1: the cell always reads the fixed value.
	StuckAt0 FaultKind = iota
	StuckAt1
	// TransitionUp: the cell cannot make a 0→1 transition.
	TransitionUp
	// TransitionDown: the cell cannot make a 1→0 transition.
	TransitionDown
	// CouplingInvert: a write transition on the aggressor cell inverts
	// this victim cell (cross-talk).
	CouplingInvert
	// BitlineStuck0: the whole column reads 0.
	BitlineStuck0
	// WordlineStuck0: the whole row reads 0.
	WordlineStuck0
	// Retention: the cell loses its charge (decays to 0) when not
	// restored within RetentionMs.
	Retention
	// AddressDecoder: accesses addressed to (Row,Col) actually reach
	// the cell (AggRow,AggCol) — the classic decoder fault MATS+ was
	// designed to catch.
	AddressDecoder
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case StuckAt0:
		return "SA0"
	case StuckAt1:
		return "SA1"
	case TransitionUp:
		return "TF-up"
	case TransitionDown:
		return "TF-down"
	case CouplingInvert:
		return "CF-inv"
	case BitlineStuck0:
		return "bitline"
	case WordlineStuck0:
		return "wordline"
	case Retention:
		return "retention"
	case AddressDecoder:
		return "addr-decoder"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes one injected defect.
type Fault struct {
	Kind     FaultKind
	Row, Col int
	// AggRow/AggCol identify the aggressor cell for CouplingInvert.
	AggRow, AggCol int
	// RetentionMs is the weak cell's retention for Retention faults.
	RetentionMs float64
}

type cellKey struct{ r, c int }

// Array is a functional DRAM cell array with fault injection. It is the
// device-under-test of the BIST substrate (internal/bist) and the defect
// source of the yield model. Time is in milliseconds; reads restore the
// row (sense-amplifier write-back), as in a real DRAM.
type Array struct {
	rows, cols int
	data       []uint64
	// rowRestore is the last time each row was written back (by a
	// write, read or refresh); retention faults decay relative to it.
	rowRestore []float64

	cellFaults map[cellKey][]Fault
	victims    map[cellKey][]cellKey // aggressor -> coupled victims
	rowFaults  map[int]bool
	colFaults  map[int]bool
	// retention indexes the retention-faulty cells per row, so a row
	// restore can decay expired cells without scanning every fault.
	retention map[int][]Fault
	// remap redirects decoder-faulty addresses to the cell actually
	// selected.
	remap map[cellKey]cellKey
}

// NewArray creates a fault-free array of the given geometry, all zeros.
func NewArray(rows, cols int) (*Array, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("dram: array geometry %dx%d invalid", rows, cols)
	}
	n := rows * cols
	return &Array{
		rows:       rows,
		cols:       cols,
		data:       make([]uint64, (n+63)/64),
		rowRestore: make([]float64, rows),
		cellFaults: map[cellKey][]Fault{},
		victims:    map[cellKey][]cellKey{},
		rowFaults:  map[int]bool{},
		colFaults:  map[int]bool{},
		retention:  map[int][]Fault{},
		remap:      map[cellKey]cellKey{},
	}, nil
}

// Rows returns the row count.
func (a *Array) Rows() int { return a.rows }

// Cols returns the column count.
func (a *Array) Cols() int { return a.cols }

// validateFault checks every field of a fault against the array geometry
// without touching any state.
func (a *Array) validateFault(f Fault) error {
	switch f.Kind {
	case BitlineStuck0:
		if f.Col < 0 || f.Col >= a.cols {
			return fmt.Errorf("dram: bitline fault column %d out of range", f.Col)
		}
		return nil
	case WordlineStuck0:
		if f.Row < 0 || f.Row >= a.rows {
			return fmt.Errorf("dram: wordline fault row %d out of range", f.Row)
		}
		return nil
	}
	if f.Row < 0 || f.Row >= a.rows || f.Col < 0 || f.Col >= a.cols {
		return fmt.Errorf("dram: fault cell (%d,%d) out of range", f.Row, f.Col)
	}
	switch f.Kind {
	case CouplingInvert:
		if f.AggRow < 0 || f.AggRow >= a.rows || f.AggCol < 0 || f.AggCol >= a.cols {
			return fmt.Errorf("dram: aggressor (%d,%d) out of range", f.AggRow, f.AggCol)
		}
	case Retention:
		if f.RetentionMs <= 0 {
			return fmt.Errorf("dram: retention fault needs positive retention, got %g", f.RetentionMs)
		}
	case AddressDecoder:
		if f.AggRow < 0 || f.AggRow >= a.rows || f.AggCol < 0 || f.AggCol >= a.cols {
			return fmt.Errorf("dram: decoder target (%d,%d) out of range", f.AggRow, f.AggCol)
		}
		if f.AggRow == f.Row && f.AggCol == f.Col {
			return fmt.Errorf("dram: decoder fault must redirect to a different cell")
		}
	}
	return nil
}

// Inject adds a fault. Coordinates must be in range. Validation is
// completed before any internal map is touched, so a rejected fault
// leaves the array exactly as it was.
func (a *Array) Inject(f Fault) error {
	if err := a.validateFault(f); err != nil {
		return err
	}
	switch f.Kind {
	case BitlineStuck0:
		a.colFaults[f.Col] = true
		return nil
	case WordlineStuck0:
		a.rowFaults[f.Row] = true
		return nil
	case AddressDecoder:
		a.remap[cellKey{f.Row, f.Col}] = cellKey{f.AggRow, f.AggCol}
		return nil
	case CouplingInvert:
		agg := cellKey{f.AggRow, f.AggCol}
		a.victims[agg] = append(a.victims[agg], cellKey{f.Row, f.Col})
	case Retention:
		a.retention[f.Row] = append(a.retention[f.Row], f)
	}
	k := cellKey{f.Row, f.Col}
	a.cellFaults[k] = append(a.cellFaults[k], f)
	return nil
}

// FaultCount returns the number of injected fault records.
func (a *Array) FaultCount() int {
	n := len(a.rowFaults) + len(a.colFaults) + len(a.remap)
	for _, fs := range a.cellFaults {
		n += len(fs)
	}
	return n
}

func (a *Array) idx(r, c int) (word, bit int) {
	i := r*a.cols + c
	return i / 64, i % 64
}

func (a *Array) rawGet(r, c int) bool {
	w, b := a.idx(r, c)
	return a.data[w]>>(uint(b))&1 == 1
}

func (a *Array) rawSet(r, c int, v bool) {
	w, b := a.idx(r, c)
	if v {
		a.data[w] |= 1 << uint(b)
	} else {
		a.data[w] &^= 1 << uint(b)
	}
}

func (a *Array) checkCoords(r, c int) error {
	if r < 0 || r >= a.rows || c < 0 || c >= a.cols {
		return fmt.Errorf("dram: cell (%d,%d) out of %dx%d array", r, c, a.rows, a.cols)
	}
	return nil
}

// Write stores v at (r,c) at time tMs, applying transition faults and
// triggering coupling faults on victims of this cell.
func (a *Array) Write(tMs float64, r, c int, v bool) error {
	if err := a.checkCoords(r, c); err != nil {
		return err
	}
	if to, ok := a.remap[cellKey{r, c}]; ok {
		r, c = to.r, to.c
	}
	a.decayRow(tMs, r) // a write activates (and restores) the row too
	old := a.rawGet(r, c)
	eff := v
	for _, f := range a.cellFaults[cellKey{r, c}] {
		switch f.Kind {
		case StuckAt0:
			eff = false
		case StuckAt1:
			eff = true
		case TransitionUp:
			if !old && v {
				eff = old // rising transition fails
			}
		case TransitionDown:
			if old && !v {
				eff = old
			}
		}
	}
	a.rawSet(r, c, eff)
	// A transition on this cell flips coupled victims.
	if old != eff {
		for _, vic := range a.victims[cellKey{r, c}] {
			a.rawSet(vic.r, vic.c, !a.rawGet(vic.r, vic.c))
		}
	}
	return nil
}

// decayRow zeroes every retention-faulty cell of row r whose charge has
// expired at tMs, then marks the row restored. Any row activation — a
// read of any cell, or a refresh — write-backs the whole row through
// the sense amplifiers, so decayed cells lose their data for good at
// that moment.
func (a *Array) decayRow(tMs float64, r int) {
	for _, f := range a.retention[r] {
		if a.rawGet(f.Row, f.Col) && tMs-a.rowRestore[r] > f.RetentionMs {
			a.rawSet(f.Row, f.Col, false)
		}
	}
	a.rowRestore[r] = tMs
}

// Read returns the value at (r,c) at time tMs, applying stuck-at,
// line and retention faults. Reading restores the row.
func (a *Array) Read(tMs float64, r, c int) (bool, error) {
	if err := a.checkCoords(r, c); err != nil {
		return false, err
	}
	if to, ok := a.remap[cellKey{r, c}]; ok {
		r, c = to.r, to.c
	}
	a.decayRow(tMs, r) // sense amps restore the whole row
	v := a.rawGet(r, c)
	if a.rowFaults[r] || a.colFaults[c] {
		return false, nil
	}
	for _, f := range a.cellFaults[cellKey{r, c}] {
		switch f.Kind {
		case StuckAt0:
			v = false
		case StuckAt1:
			v = true
		}
	}
	return v, nil
}

// fillBackground raw-initializes every cell to the checkerboard
// background (backgroundAt) a 64-bit word at a time, bypassing write
// fault semantics (stuck and transition behaviour still applies on
// later reads and writes), and restarts every row's retention clock at
// tMs. It models the array's initialized state rather than a sequence
// of write operations.
func (a *Array) fillBackground(tMs float64) {
	for r := 0; r < a.rows; r++ {
		// Cell (r, c) is bit i = r*cols + c, and r+c is odd exactly when
		// i + r*(cols-1) is: the row sets its odd bits when r*(cols-1)
		// is even and its even bits otherwise (words start on even bits).
		mask := uint64(0xAAAAAAAAAAAAAAAA) >> (r * (a.cols - 1) % 2)
		for lo, hi := r*a.cols, (r+1)*a.cols; lo < hi; {
			w, b := lo/64, lo%64
			n := min(64-b, hi-lo)
			span := ^uint64(0) >> (64 - n) << b
			a.data[w] = a.data[w]&^span | mask&span
			lo += n
		}
		a.rowRestore[r] = tMs
	}
}

// RefreshRow restores row r at time tMs (retention clocks restart).
// Cells whose retention already expired have lost their data.
func (a *Array) RefreshRow(tMs float64, r int) error {
	if r < 0 || r >= a.rows {
		return fmt.Errorf("dram: refresh row %d out of range", r)
	}
	a.decayRow(tMs, r)
	return nil
}
