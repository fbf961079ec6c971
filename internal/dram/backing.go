package dram

import (
	"fmt"
)

// This file couples the timing Device to functional Arrays: every column
// access also reads or writes the backing cells, so injected defects,
// retention decay and repair actions surface as runtime data errors
// during scheduled traffic — the bridge between the §6 fault models and
// the §4 memory-controller world that the reliability pipeline
// (internal/reliab) builds on.
//
// The functional contract is a fixed checkerboard background: writes
// store it, reads compare against it, and every mismatching data word is
// reported through the error callback. Data values are not otherwise
// modelled by the traffic generators, so the background doubles as the
// "expected data" an ECC word would protect.

// WordErrorFunc reports one mismatching data word observed during a read
// access: the bank and (logical) row of the access and the number of
// flipped bits inside the DataBits-wide word. It is called synchronously
// from Access/Burst.
type WordErrorFunc func(bank, row, bits int)

// backingState is the per-device functional state.
type backingState struct {
	arrays  []*Array // one per bank; rows may exceed RowsPerBank (spares)
	onError WordErrorFunc
	beat    []int         // per-bank rotating beat (word) index
	redir   []map[int]int // per-bank logical row -> physical row
	refRow  []int         // per-bank rotating refresh row
}

// backgroundAt is the functional data background (checkerboard).
func backgroundAt(row, col int) bool { return (row+col)%2 == 1 }

// SetBacking attaches one functional Array per bank plus an error
// callback. Each array must have at least RowsPerBank rows (extra rows
// model spare rows available for repair redirection) and exactly
// PageBits columns. Passing nil arrays detaches the backing.
func (d *Device) SetBacking(arrays []*Array, onError WordErrorFunc) error {
	if arrays == nil {
		d.backing = nil
		return nil
	}
	if len(arrays) != d.cfg.Banks {
		return fmt.Errorf("dram: backing needs %d arrays, got %d", d.cfg.Banks, len(arrays))
	}
	for i, a := range arrays {
		if a == nil {
			return fmt.Errorf("dram: backing array %d is nil", i)
		}
		if a.Rows() < d.cfg.RowsPerBank {
			return fmt.Errorf("dram: backing array %d has %d rows, need >= %d", i, a.Rows(), d.cfg.RowsPerBank)
		}
		if a.Cols() != d.cfg.PageBits {
			return fmt.Errorf("dram: backing array %d has %d columns, need page length %d", i, a.Cols(), d.cfg.PageBits)
		}
	}
	// Initialize every array to the background so rows read before
	// their first write still satisfy the functional contract. The fill
	// is raw: stuck cells will still read wrong, which is exactly the
	// manufactured-defect behaviour the pipeline should see.
	for _, a := range arrays {
		a.fillBackground(0)
	}
	b := &backingState{
		arrays:  arrays,
		onError: onError,
		beat:    make([]int, d.cfg.Banks),
		redir:   make([]map[int]int, d.cfg.Banks),
		refRow:  make([]int, d.cfg.Banks),
	}
	d.backing = b
	return nil
}

// Backing returns the functional array of one bank, or nil.
func (d *Device) Backing(bank int) *Array {
	if d.backing == nil || bank < 0 || bank >= len(d.backing.arrays) {
		return nil
	}
	return d.backing.arrays[bank]
}

// RedirectRow redirects accesses of one logical row to a different
// physical row of the bank's backing array — the runtime counterpart of
// the §5 spare-row repair. Timing is unaffected (a spare row in the same
// bank has identical access timing); only the functional cells change.
func (d *Device) RedirectRow(bank, logical, physical int) error {
	if d.backing == nil {
		return fmt.Errorf("dram: no backing attached")
	}
	if bank < 0 || bank >= d.cfg.Banks {
		return fmt.Errorf("dram: redirect bank %d out of range", bank)
	}
	if logical < 0 || logical >= d.cfg.RowsPerBank {
		return fmt.Errorf("dram: redirect row %d out of range [0,%d)", logical, d.cfg.RowsPerBank)
	}
	if physical < 0 || physical >= d.backing.arrays[bank].Rows() {
		return fmt.Errorf("dram: redirect target %d outside backing array (%d rows)", physical, d.backing.arrays[bank].Rows())
	}
	if d.backing.redir[bank] == nil {
		d.backing.redir[bank] = map[int]int{}
	}
	d.backing.redir[bank][logical] = physical
	return nil
}

// physRow resolves a logical row through the redirect table.
func (b *backingState) physRow(bank, row int) int {
	if m := b.redir[bank]; m != nil {
		if p, ok := m[row]; ok {
			return p
		}
	}
	return row
}

// touch performs the functional half of one column access: the beat's
// DataBits-wide slice of the (redirected) row is written with the
// background, or read and compared against it. Mismatching reads invoke
// the error callback unless the access is a scrub.
func (d *Device) touch(tNs float64, bank, row int, write, scrub bool) {
	b := d.backing
	if b == nil {
		return
	}
	beats := d.cfg.ColumnsPerRow()
	if beats < 1 {
		return
	}
	beat := b.beat[bank]
	b.beat[bank] = (beat + 1) % beats
	arr := b.arrays[bank]
	phys := b.physRow(bank, row)
	tMs := tNs / 1e6
	lo := beat * d.cfg.DataBits
	bad := 0
	for c := lo; c < lo+d.cfg.DataBits; c++ {
		if write {
			// Injected write faults (stuck, transition) keep the cell
			// wrong; the next read detects it.
			_ = arr.Write(tMs, phys, c, backgroundAt(phys, c))
			continue
		}
		v, err := arr.Read(tMs, phys, c)
		if err == nil && v != backgroundAt(phys, c) {
			bad++
		}
	}
	if !write && !scrub && bad > 0 && b.onError != nil {
		b.onError(bank, row, bad)
	}
}

// refreshBacking restores the next physical row of the refreshed bank,
// so retention clocks in the functional model track the device's
// distributed refresh (spare rows are refreshed too).
func (d *Device) refreshBacking(tNs float64, bank int) {
	b := d.backing
	if b == nil {
		return
	}
	arr := b.arrays[bank]
	r := b.refRow[bank]
	b.refRow[bank] = (r + 1) % arr.Rows()
	_ = arr.RefreshRow(tNs/1e6, r)
}

// ScrubRow rewrites one full (redirected) row with the correct
// background through the normal access timing path: a write burst over
// every beat of the page, accounted as scrub activity rather than
// client writes. It is the "correctable errors are scrubbed on read"
// action of the reliability ladder, and also serves to initialize a
// spare row after RedirectRow. The returned result spans the whole
// scrub burst.
func (d *Device) ScrubRow(now float64, bank, row int) (AccessResult, error) {
	if d.backing == nil {
		return AccessResult{}, fmt.Errorf("dram: no backing attached")
	}
	beats := d.cfg.ColumnsPerRow()
	var first, last AccessResult
	var err error
	t := now
	for i := 0; i < beats; i++ {
		last, err = d.access(t, bank, row, true, true)
		if err != nil {
			return AccessResult{}, err
		}
		if i == 0 {
			first = last
		}
		t = last.StartNs
	}
	d.stats.Scrubs++
	d.stats.ScrubBusyNs += last.DoneNs - first.StartNs
	return AccessResult{StartNs: first.StartNs, DoneNs: last.DoneNs, Hit: first.Hit, Empty: first.Empty}, nil
}
