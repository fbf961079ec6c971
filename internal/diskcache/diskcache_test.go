package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"edram/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Check(m) }

const gen = "test/v1"

func open(t *testing.T, dir string, opt Options) *Cache {
	t.Helper()
	if opt.Generation == "" {
		opt.Generation = gen
	}
	c, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// writeLog crafts a raw segment file from a header plus records, so
// replay semantics can be tested against exact byte layouts.
func writeLog(t *testing.T, dir string, chunks ...[]byte) {
	t.Helper()
	header, err := encodeHeader(gen)
	if err != nil {
		t.Fatalf("encodeHeader: %v", err)
	}
	data := append([]byte(nil), header...)
	for _, c := range chunks {
		data = append(data, c...)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatalf("writing crafted log: %v", err)
	}
}

func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	c.Put("alpha", []byte("one"))
	c.Put("beta", []byte("two"))
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := open(t, dir, Options{})
	defer c2.Close()
	if got := c2.Stats().ReplayedEntries; got != 2 {
		t.Fatalf("ReplayedEntries = %d, want 2", got)
	}
	for key, want := range map[string]string{"alpha": "one", "beta": "two"} {
		got, ok := c2.Get(key)
		if !ok || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if _, ok := c2.Get("missing"); ok {
		t.Fatal("Get(missing) unexpectedly hit")
	}
}

func TestReplayLaterRecordWins(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir,
		encodeRecord("k", []byte("stale")),
		encodeRecord("other", []byte("x")),
		encodeRecord("k", []byte("fresh")),
	)
	c := open(t, dir, Options{})
	defer c.Close()
	got, ok := c.Get("k")
	if !ok || string(got) != "fresh" {
		t.Fatalf("Get(k) = %q, %v; want fresh", got, ok)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestReplayTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	torn := encodeRecord("torn", []byte("never fully written"))
	writeLog(t, dir,
		encodeRecord("a", []byte("1")),
		encodeRecord("b", []byte("2")),
		torn[:len(torn)-5], // crash mid-append
	)
	c := open(t, dir, Options{})
	st := c.Stats()
	if st.DroppedRecords != 1 || st.ReplayedEntries != 2 {
		t.Fatalf("stats = %+v, want 1 dropped / 2 replayed", st)
	}
	if _, ok := c.Get("torn"); ok {
		t.Fatal("torn record replayed")
	}
	// The damaged suffix must be truncated, so appends after recovery
	// produce a clean log that replays in full.
	c.Put("c", []byte("3"))
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2 := open(t, dir, Options{})
	defer c2.Close()
	st = c2.Stats()
	if st.DroppedRecords != 0 || st.ReplayedEntries != 3 {
		t.Fatalf("after recovery stats = %+v, want 0 dropped / 3 replayed", st)
	}
}

func TestReplayCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	bad := encodeRecord("bad", []byte("payload"))
	bad[10] ^= 0xff // flip a byte inside the record body
	writeLog(t, dir,
		encodeRecord("good", []byte("kept")),
		bad,
		encodeRecord("after", []byte("unreachable")),
	)
	c := open(t, dir, Options{})
	defer c.Close()
	// Only the suffix from the damaged record on is dropped; the
	// CRC-verified prefix replays exactly.
	if got, ok := c.Get("good"); !ok || string(got) != "kept" {
		t.Fatalf("Get(good) = %q, %v", got, ok)
	}
	for _, key := range []string{"bad", "after"} {
		if _, ok := c.Get(key); ok {
			t.Fatalf("Get(%q) replayed past a corrupt record", key)
		}
	}
	if st := c.Stats(); st.DroppedRecords != 1 {
		t.Fatalf("DroppedRecords = %d, want 1", st.DroppedRecords)
	}
}

func TestMidCompactionKillLeavesLogAuthoritative(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, encodeRecord("k", []byte("v")))
	// A compaction killed before its atomic rename leaves a tmp file of
	// arbitrary completeness; the main segment must stay authoritative.
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("partial garbage"), 0o644); err != nil {
		t.Fatalf("writing stray tmp: %v", err)
	}
	c := open(t, dir, Options{})
	defer c.Close()
	if got, ok := c.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get(k) = %q, %v", got, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not removed: %v", err)
	}
}

func TestGenerationMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{Generation: "schema/v1"})
	c.Put("k", []byte("old-schema bytes"))
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := open(t, dir, Options{Generation: "schema/v2"})
	if _, ok := c2.Get("k"); ok {
		t.Fatal("stale-generation entry replayed")
	}
	st := c2.Stats()
	if st.Invalidations != 1 || st.ReplayedEntries != 0 {
		t.Fatalf("stats = %+v, want 1 invalidation / 0 replayed", st)
	}
	c2.Put("k", []byte("new-schema bytes"))
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c3 := open(t, dir, Options{Generation: "schema/v2"})
	defer c3.Close()
	if got, ok := c3.Get("k"); !ok || string(got) != "new-schema bytes" {
		t.Fatalf("Get(k) = %q, %v", got, ok)
	}
}

func TestBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{MaxEntries: 2})
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // promote a over b
	if n := c.Put("c", []byte("3")); n != 1 {
		t.Fatalf("Put past the entry budget evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived past the entry budget")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The budget also holds across a restart with a tighter limit.
	c2 := open(t, dir, Options{MaxEntries: 1})
	defer c2.Close()
	if n := c2.Len(); n != 1 {
		t.Fatalf("Len after tightened restart = %d, want 1", n)
	}
}

// TestMemoryOnly pins Open(""): the same LRU under both budgets, with
// no segment file and no writer, and Close and Compact doing nothing.
func TestMemoryOnly(t *testing.T) {
	c := open(t, "", Options{MaxEntries: 3, MaxBytes: 8})
	if n := c.Put("a", []byte("1")); n != 0 {
		t.Fatalf("Put into an empty cache evicted %d", n)
	}
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3"))
	if n := c.Put("d", []byte("4")); n != 1 {
		t.Fatalf("Put past the entry budget evicted %d, want 1", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("LRU entry a survived past the entry budget")
	}
	// Live bytes count key plus value: three entries hold 6 bytes, and
	// a 5-byte newcomer breaks the 8-byte budget until the two oldest go.
	if n := c.Put("e", []byte("5555")); n != 2 {
		t.Fatalf("Put past the byte budget evicted %d, want 2", n)
	}
	if st := c.Stats(); st.Entries != 2 || st.LiveBytes != 7 || st.Evictions != 3 {
		t.Fatalf("stats = %+v, want 2 entries / 7 live bytes / 3 evictions", st)
	}
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close does nothing: the cache keeps serving and storing.
	if v, ok := c.Get("e"); !ok || string(v) != "5555" {
		t.Fatalf("Get after Close = %q, %t; want 5555", v, ok)
	}
	c.Put("f", []byte("6"))
	if _, ok := c.Get("f"); !ok {
		t.Fatal("Put after Close was not stored")
	}
	// An empty dir would put the segment in the working directory.
	for _, name := range []string{logName, tmpName} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("memory-only cache left %s in the working directory (stat err %v)", name, err)
		}
	}
}

func TestCompactDropsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	for i := 0; i < 10; i++ {
		c.Put("hot", []byte(fmt.Sprintf("version-%d", i)))
	}
	c.Put("cold", []byte("x"))
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := c.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The compacted segment holds exactly the live set: replay applies
	// one record per live key.
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	headerLen, ok := parseHeader(data, gen)
	if !ok {
		t.Fatal("compacted segment header unreadable")
	}
	records := 0
	for off := headerLen; off < len(data); records++ {
		_, _, next, ok := parseRecord(data, off)
		if !ok {
			t.Fatalf("compacted segment has a bad record at offset %d", off)
		}
		off = next
	}
	if records != 2 {
		t.Fatalf("compacted segment holds %d records, want 2", records)
	}
	c2 := open(t, dir, Options{})
	defer c2.Close()
	if got, ok := c2.Get("hot"); !ok || string(got) != "version-9" {
		t.Fatalf("Get(hot) = %q, %v; want version-9", got, ok)
	}
}

func TestCloseSnapshotIsCompact(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		c.Put("k", []byte(fmt.Sprintf("v%d", i)))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2 := open(t, dir, Options{})
	defer c2.Close()
	st := c2.Stats()
	if st.ReplayedEntries != 1 {
		t.Fatalf("ReplayedEntries = %d, want 1 (graceful drain snapshots the live set)", st.ReplayedEntries)
	}
	if got, _ := c2.Get("k"); !bytes.Equal(got, []byte("v4")) {
		t.Fatalf("Get(k) = %q, want v4", got)
	}
}

func TestClosedCacheRejectsOps(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c.Put("k", []byte("v")) // must not panic or write
	if err := c.Compact(); err != ErrClosed {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{MaxEntries: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%100)
				c.Put(key, []byte(key))
				if got, ok := c.Get(key); ok && string(got) != key {
					t.Errorf("Get(%q) = %q", key, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// FuzzParseRecord drives the segment replay's record decoder with
// arbitrary bytes at an arbitrary offset: it never panics, a record it
// accepts has a CRC that matches its key and value and ends within the
// data, and any record encodeRecord frames (here, one cut from the
// input at the offset) parses back to the same key and value.
func FuzzParseRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, off uint) {
		o := int(off % uint(len(data)+1))
		key, val, next, ok := parseRecord(data, o)
		if ok {
			if next <= o || next > len(data) {
				t.Fatalf("record at %d ends at %d, outside (%d, %d]", o, next, o, len(data))
			}
			framed := encodeRecord(key, val)
			if !bytes.Equal(framed, data[o:next]) {
				t.Fatalf("accepted record %q/%x at %d is not its own framing (CRC %x, on disk %x)",
					key, val, o, framed[len(framed)-4:], data[next-4:next])
			}
		}
		if o == 0 || o > maxKeyLen-1 {
			return
		}
		k, v := string(data[:o]), data[o:]
		buf := append(append([]byte(nil), data[:o]...), encodeRecord(k, v)...)
		gotKey, gotVal, next, ok := parseRecord(buf, o)
		if !ok || gotKey != k || !bytes.Equal(gotVal, v) || next != len(buf) {
			t.Fatalf("encodeRecord(%q, %x) at %d parsed back as %q/%x, next %d, ok %v", k, v, o, gotKey, gotVal, next, ok)
		}
	})
}

// TestFramingAllocs pins the framing's allocations: appending a record
// into a buffer with room allocates nothing (the writer reuses one
// frame for every append), and decoding one allocates only the key
// string and the value copy the index keeps.
func TestFramingAllocs(t *testing.T) {
	key, val := "explore|v3|req/v2|cap=16", bytes.Repeat([]byte("x"), 4096)
	frame := appendRecord(nil, key, val)
	if n := testing.AllocsPerRun(100, func() { frame = appendRecord(frame[:0], key, val) }); n != 0 {
		t.Fatalf("appendRecord into a reused frame: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := parseRecord(frame, 0); !ok {
			t.Fatal("parseRecord rejected its own framing")
		}
	}); n != 2 {
		t.Fatalf("parseRecord: %.0f allocations, want 2 (key and value)", n)
	}
}

// replayed walks a segment the way Open's replay does and returns the
// live set it should rebuild (later records win) and the length of the
// valid prefix; ok false means the header is unreadable. Every
// accepted record must re-frame to the exact bytes it was read from.
func replayed(t *testing.T, data []byte) (live map[string][]byte, valid int, ok bool) {
	t.Helper()
	valid, ok = parseHeader(data, gen)
	if !ok {
		return nil, 0, false
	}
	live = map[string][]byte{}
	for valid < len(data) {
		key, val, next, ok := parseRecord(data, valid)
		if !ok {
			break
		}
		if framed := appendRecord(nil, key, val); !bytes.Equal(framed, data[valid:next]) {
			t.Fatalf("record %q at %d re-frames to %x, read from %x", key, valid, framed, data[valid:next])
		}
		live[key] = val
		valid = next
	}
	return live, valid, true
}

// openSegment writes data as a segment, opens a cache on it and checks
// what Open kept: exactly the live set of want, and a segment file cut
// back to size bytes. The caller closes the cache.
func openSegment(t *testing.T, data []byte, want map[string][]byte, size int) *Cache {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := open(t, dir, Options{MaxEntries: 1 << 20})
	if n := c.Len(); n != len(want) {
		c.Close()
		t.Fatalf("replayed %d entries, want %d", n, len(want))
	}
	for key, val := range want {
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, val) {
			c.Close()
			t.Fatalf("Get(%q) = %x, %v; want %x", key, got, ok, val)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil || fi.Size() != int64(size) {
		c.Close()
		t.Fatalf("segment after Open: %v, err %v; want %d bytes", fi, err, size)
	}
	return c
}

// FuzzReplay drives Open with whole segment files. Arbitrary bytes
// never make it panic or fail: it replays exactly the CRC-verified
// records before the first damaged one, each of which re-frames to the
// bytes it was read from, and cuts the file back to them (a segment
// with an unreadable header is replaced by a fresh header). Then a
// valid segment built from the input is cut at an arbitrary offset:
// Open keeps exactly the records that end before the cut and drops
// only the damaged suffix.
func FuzzReplay(f *testing.F) {
	header, err := encodeHeader(gen)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		live, valid, ok := replayed(t, data)
		if !ok {
			valid = len(header)
		}
		c := openSegment(t, data, live, valid)
		st := c.Stats()
		c.Close()
		if ok && st.DroppedRecords != boolInt(valid < len(data)) {
			t.Fatalf("%d damaged suffixes dropped from %d valid of %d bytes", st.DroppedRecords, valid, len(data))
		}
		if !ok && st.Invalidations != boolInt(len(data) > 0) {
			t.Fatalf("%d invalidations of a %d-byte segment with no valid header", st.Invalidations, len(data))
		}

		// A valid segment: the input in 16-byte values under numbered
		// keys, cut at an arbitrary offset.
		seg := append([]byte(nil), header...)
		ends := []int{len(seg)}
		for i := 0; i*16 < len(data); i++ {
			seg = appendRecord(seg, fmt.Sprintf("k%d", i), data[i*16:min(len(data), (i+1)*16)])
			ends = append(ends, len(seg))
		}
		n := int(cut % uint(len(seg)+1))
		want, keep := map[string][]byte{}, 0
		for i, end := range ends {
			if end > n {
				break
			}
			if i > 0 {
				want[fmt.Sprintf("k%d", i-1)] = data[(i-1)*16 : min(len(data), i*16)]
			}
			keep = end
		}
		if n < len(header) {
			keep = len(header) // no readable header: a fresh one replaces it
		}
		c = openSegment(t, seg[:n], want, keep)
		st = c.Stats()
		c.Close()
		if n >= len(header) && st.DroppedRecords != boolInt(keep < n) {
			t.Fatalf("cut at %d of %d: %d damaged suffixes dropped, want %d", n, len(seg), st.DroppedRecords, boolInt(keep < n))
		}
	})
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// benchValue is a response-sized value: an explore response encodes
// to a few KiB.
var benchValue = bytes.Repeat([]byte(`{"seq":1234,"area_mm2":12.5},`), 140)

// BenchmarkCacheAppend measures a steady-state Put through the writer:
// the index update, the queue hand-off and the framed append to the
// segment, with the compactions the growing log triggers. Each Put
// waits for the writer to take the previous one, so none is shed.
func BenchmarkCacheAppend(b *testing.B) {
	c, err := Open(b.TempDir(), Options{Generation: gen})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("explore|req/v2|cap=16|bw=%d", i)
		c.Put(keys[i], benchValue)
	}
	drained := func() {
		for len(c.writeq) > 0 {
			runtime.Gosched()
		}
	}
	drained() // the writer has grown its frame on the first of these
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drained()
		c.Put(keys[i%len(keys)], benchValue)
	}
	b.StopTimer()
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	if st := c.Stats(); st.DroppedWrites > 0 || st.WriteErrors > 0 {
		b.Fatalf("%d appends shed, %d failed", st.DroppedWrites, st.WriteErrors)
	}
}

// BenchmarkReplay measures Open on a ~0.6 MiB segment of
// response-sized records: reading, CRC-checking and indexing every
// record.
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	seg, err := encodeHeader(gen)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; len(seg) < 600<<10; i++ {
		seg = appendRecord(seg, fmt.Sprintf("explore|req/v2|cap=16|bw=%d", i), benchValue)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), seg, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Open(dir, Options{Generation: gen})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := c.Stats(); st.DroppedRecords > 0 {
			b.Fatalf("replay dropped a record of its own segment")
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
