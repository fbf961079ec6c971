// Package diskcache is the service layer's canonical-key result cache:
// an in-memory LRU index of (key, response-bytes) entries bounded by a
// size/entry budget, optionally shadowed by an append-only segment log
// with CRC framing, compacted atomically via tmp+rename, snapshotted
// on graceful drain and replayed on boot so a restarted replica serves
// its hot keys byte-identical to the original miss without
// recomputation. Open("") gives the same cache with no log.
//
// Durability model: the live working set (index and values) lives in
// memory; the log, when there is one, is its crash-safe shadow.
// Appends are handed to a single writer goroutine over a bounded
// queue, so the serving path never blocks on disk and no file I/O ever
// runs under the index lock.
// A torn or corrupt record — a crash mid-append — is detected by its
// CRC at replay and the damaged suffix is dropped; everything before
// it replays exactly. A compaction killed mid-write leaves only a
// stale tmp file (removed at open); the rename is atomic, so the log
// is always either the old segment or the complete new one.
//
// Every segment starts with a generation header. The owner derives the
// generation from its wire schema version and canonical-key tag
// versions (service.CacheGeneration); a snapshot written under an old
// schema self-invalidates at open instead of replaying wrong bytes.
package diskcache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	logName = "cache.log"
	tmpName = "cache.log.tmp"

	// magic opens every segment; the header is
	// magic | u32 gen-length | gen | u32 crc32(gen).
	magic = "EDRC"

	// recordOverhead is the framing cost of one record:
	// u32 key-length | u32 value-length | key | value | u32 crc32(key‖value).
	recordOverhead = 12

	// maxKeyLen / maxValLen are sanity bounds on the framing fields, so
	// a corrupt length cannot ask replay for a gigantic allocation.
	maxKeyLen = 1 << 16
	maxValLen = 1 << 30

	// compactMinBytes is the log size below which compaction is never
	// triggered automatically — rewriting a tiny log buys nothing.
	compactMinBytes = 1 << 20
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("diskcache: closed")

// Options tunes a cache; zero values get defaults.
type Options struct {
	// MaxBytes bounds the live value bytes held (default 256 MiB).
	MaxBytes int64
	// MaxEntries bounds the live entry count (default 4096).
	MaxEntries int
	// Generation tags the segment. Required: a cache opened with a
	// different generation than the segment on disk discards the
	// segment instead of replaying bytes encoded under another schema.
	Generation string
	// QueueDepth bounds the pending-append queue (default 256). When
	// the writer falls behind, further Puts stay memory-only (counted
	// as DroppedWrites) rather than blocking the serving path.
	QueueDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits, Misses, Puts int64
	// Evictions counts entries dropped by the size/entry budget.
	Evictions int64
	// ReplayedEntries is the live entry count recovered at Open;
	// DroppedRecords counts damaged suffixes truncated at Open;
	// Invalidations counts whole-segment discards (generation mismatch
	// or unreadable header).
	ReplayedEntries int64
	DroppedRecords  int64
	Invalidations   int64
	// Compactions counts segment rewrites; WriteErrors counts failed
	// appends (the entry stays served from memory, just not durable);
	// DroppedWrites counts appends shed by the full queue.
	Compactions   int64
	WriteErrors   int64
	DroppedWrites int64
	// Entries / LiveBytes describe the current live set.
	Entries   int
	LiveBytes int64
}

type entry struct {
	key string
	val []byte
}

// Cache is the result cache. Construct with Open; for a disk-backed
// cache, Close snapshots the live set back to a compact segment.
type Cache struct {
	dir string // "" = memory-only: no segment, no writer
	opt Options

	// mu guards the index only — never held across file I/O (the locks
	// analyzer enforces this repo-wide).
	mu        sync.Mutex
	order     *list.List // front = most recently used
	entries   map[string]*list.Element
	liveBytes int64
	closed    bool

	// The segment file is owned by the writer goroutine while it runs,
	// and by Open/Close outside that window. All nil when memory-only.
	// frame is the writer's one record buffer, reused for every append
	// and compaction.
	f        *os.File
	logBytes int64
	frame    []byte

	writeq   chan entry
	compactq chan chan error
	done     chan struct{} // closed by Close: writer drains and exits
	wdone    chan struct{} // closed by the writer on exit

	hits, misses, puts      atomic.Int64
	evictions, compactions  atomic.Int64
	replayed, dropped       atomic.Int64
	invalidations           atomic.Int64
	writeErrors, dropWrites atomic.Int64
}

// Open loads (or creates) the segment in dir, replays it into memory,
// truncates any damaged suffix, and starts the background writer. An
// empty dir opens a memory-only cache: no file and no writer, and
// Close and Compact do nothing.
func Open(dir string, opt Options) (*Cache, error) {
	opt = opt.withDefaults()
	if opt.Generation == "" {
		return nil, errors.New("diskcache: Options.Generation is required")
	}
	if dir == "" {
		return &Cache{opt: opt, order: list.New(), entries: map[string]*list.Element{}}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	// A tmp file is a compaction that died before its atomic rename;
	// the main segment is still authoritative.
	if err := os.Remove(filepath.Join(dir, tmpName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("diskcache: removing stale tmp: %w", err)
	}
	c := &Cache{
		dir:      dir,
		opt:      opt,
		order:    list.New(),
		entries:  map[string]*list.Element{},
		writeq:   make(chan entry, opt.QueueDepth),
		compactq: make(chan chan error),
		done:     make(chan struct{}),
		wdone:    make(chan struct{}),
	}
	if err := c.replay(); err != nil {
		return nil, err
	}
	go c.writer(c.done)
	return c, nil
}

// replay loads the segment into the in-memory index, enforcing the
// budget, and leaves an append handle positioned after the last valid
// record.
func (c *Cache) replay() error {
	path := filepath.Join(c.dir, logName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("diskcache: reading segment: %w", err)
	}
	valid := 0
	if headerLen, ok := parseHeader(data, c.opt.Generation); ok {
		valid = headerLen
		for valid < len(data) {
			key, val, next, ok := parseRecord(data, valid)
			if !ok {
				// Damaged suffix: a torn append or bit rot. Everything
				// before it is CRC-verified; drop only the tail.
				c.dropped.Add(1)
				break
			}
			c.applyReplayed(key, val)
			valid = next
		}
		c.replayed.Store(int64(len(c.entries)))
	} else {
		if len(data) > 0 {
			// Unreadable header or another generation's segment: the
			// bytes may be encoded under a different schema, so the
			// whole segment is discarded rather than replayed wrong.
			c.invalidations.Add(1)
		}
		fresh, err := encodeHeader(c.opt.Generation)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			return fmt.Errorf("diskcache: writing segment header: %w", err)
		}
		valid = len(fresh)
	}
	c.enforceBudget()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("diskcache: opening segment for append: %w", err)
	}
	// Truncate the damaged suffix (if any) and append after the valid
	// prefix from now on.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return fmt.Errorf("diskcache: truncating damaged suffix: %w", err)
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return fmt.Errorf("diskcache: seeking segment: %w", err)
	}
	c.f = f
	c.logBytes = int64(valid)
	return nil
}

// applyReplayed folds one replayed record into the index (later records
// for the same key win; record order is the recency order).
func (c *Cache) applyReplayed(key string, val []byte) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.liveBytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, val: val})
	c.liveBytes += int64(len(key) + len(val))
}

// enforceBudget evicts least-recently-used entries until the size and
// entry budgets hold, and returns how many it evicted. Callers hold mu
// (or run single-threaded at Open).
func (c *Cache) enforceBudget() int {
	n := 0
	for len(c.entries) > c.opt.MaxEntries || (c.liveBytes > c.opt.MaxBytes && len(c.entries) > 1) {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		c.order.Remove(oldest)
		delete(c.entries, e.key)
		c.liveBytes -= int64(len(e.key) + len(e.val))
		n++
	}
	c.evictions.Add(int64(n))
	return n
}

// Get returns the cached bytes for key, promoting the entry to
// most-recently-used. The returned slice must not be mutated.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	val := el.Value.(*entry).val
	c.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, queues the append to the segment log, and
// returns the number of entries evicted to stay within the budget. The
// entry serves from memory immediately; durability follows when the
// writer drains the queue (or at the Close snapshot).
func (c *Cache) Put(key string, val []byte) int {
	if key == "" || len(key) >= maxKeyLen || int64(len(val)) >= maxValLen {
		return 0
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	c.applyReplayed(key, val)
	evicted := c.enforceBudget()
	c.mu.Unlock()
	c.puts.Add(1)
	if c.writeq != nil {
		select {
		case c.writeq <- entry{key: key, val: val}:
		default:
			c.dropWrites.Add(1)
		}
	}
	return evicted
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, live := len(c.entries), c.liveBytes
	c.mu.Unlock()
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Puts:            c.puts.Load(),
		Evictions:       c.evictions.Load(),
		ReplayedEntries: c.replayed.Load(),
		DroppedRecords:  c.dropped.Load(),
		Invalidations:   c.invalidations.Load(),
		Compactions:     c.compactions.Load(),
		WriteErrors:     c.writeErrors.Load(),
		DroppedWrites:   c.dropWrites.Load(),
		Entries:         entries,
		LiveBytes:       live,
	}
}

// Compact rewrites the segment to exactly the live set (tmp + atomic
// rename). The rewrite runs on the writer goroutine, serialized with
// appends. It does nothing on a memory-only cache.
func (c *Cache) Compact() error {
	if c.dir == "" {
		return nil
	}
	ch := make(chan error, 1)
	select {
	case c.compactq <- ch:
		return <-ch
	case <-c.done:
		return ErrClosed
	}
}

// Close drains pending appends, snapshots the live set into a compact
// segment (the graceful-drain snapshot), and releases the file. It
// does nothing on a memory-only cache, which keeps serving.
func (c *Cache) Close() error {
	if c.dir == "" {
		return nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	<-c.wdone
	// Single-threaded from here: the writer has exited.
	err := c.compact()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writer is the single goroutine that owns the segment file: it drains
// the append queue, triggers budget-driven compaction, and serves
// explicit Compact requests. It exits when done closes (Close), after
// draining whatever is already queued.
func (c *Cache) writer(done <-chan struct{}) {
	defer close(c.wdone)
	for {
		select {
		case e := <-c.writeq:
			c.write(e)
			c.maybeCompact()
		case ch := <-c.compactq:
			ch <- c.compact()
		case <-done:
			for {
				select {
				case e := <-c.writeq:
					c.write(e)
				default:
					return
				}
			}
		}
	}
}

// write appends one framed record to the segment, framed in the
// writer's reused buffer. Failures are counted, not fatal: the entry
// still serves from memory.
func (c *Cache) write(e entry) {
	c.frame = appendRecord(c.frame[:0], e.key, e.val)
	if _, err := c.f.Write(c.frame); err != nil {
		c.writeErrors.Add(1)
		return
	}
	c.logBytes += int64(len(c.frame))
}

// maybeCompact rewrites the segment when the log has grown past twice
// the live set — the stale-record ratio where a rewrite pays for
// itself.
func (c *Cache) maybeCompact() {
	c.mu.Lock()
	live := c.liveBytes
	c.mu.Unlock()
	if c.logBytes > compactMinBytes && c.logBytes > 2*live {
		// Best effort: a failed automatic compaction keeps appending to
		// the old segment; the next trigger retries.
		if err := c.compact(); err != nil {
			c.writeErrors.Add(1)
		}
	}
}

// compact writes the live set (oldest → newest, so replay rebuilds the
// recency order) to a tmp segment and renames it over the log. Only
// the writer goroutine (or Close, after the writer exited) calls it.
func (c *Cache) compact() error {
	// Snapshot the live set under the lock — value slices are immutable
	// by contract, so holding references is safe; no I/O happens here.
	c.mu.Lock()
	snap := make([]entry, 0, len(c.entries))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		snap = append(snap, entry{key: e.key, val: e.val})
	}
	c.mu.Unlock()

	header, err := encodeHeader(c.opt.Generation)
	if err != nil {
		return err
	}
	tmpPath := filepath.Join(c.dir, tmpName)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("diskcache: creating compaction tmp: %w", err)
	}
	written := int64(0)
	write := func(b []byte) error {
		n, err := tmp.Write(b)
		written += int64(n)
		return err
	}
	if err = write(header); err == nil {
		for _, e := range snap {
			c.frame = appendRecord(c.frame[:0], e.key, e.val)
			if err = write(c.frame); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("diskcache: writing compaction tmp: %w", err)
	}
	logPath := filepath.Join(c.dir, logName)
	if err := os.Rename(tmpPath, logPath); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("diskcache: swapping compacted segment: %w", err)
	}
	// Reopen the append handle on the new segment; the old descriptor
	// points at the unlinked file.
	old := c.f
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskcache: reopening compacted segment: %w", err)
	}
	old.Close()
	c.f = f
	c.logBytes = written
	c.compactions.Add(1)
	return nil
}

// ---- framing ----------------------------------------------------------

// encodeHeader renders the segment header for a generation.
func encodeHeader(gen string) ([]byte, error) {
	if len(gen) >= maxKeyLen {
		return nil, fmt.Errorf("diskcache: generation tag too long (%d bytes)", len(gen))
	}
	buf := make([]byte, 0, len(magic)+8+len(gen))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(gen)))
	buf = append(buf, gen...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE([]byte(gen)))
	return buf, nil
}

// parseHeader validates the segment header against the expected
// generation, returning the header length on success.
func parseHeader(data []byte, gen string) (int, bool) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return 0, false
	}
	off := len(magic)
	genLen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if genLen >= maxKeyLen || off+genLen+4 > len(data) {
		return 0, false
	}
	got := data[off : off+genLen]
	off += genLen
	sum := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if crc32.ChecksumIEEE(got) != sum || string(got) != gen {
		return 0, false
	}
	return off, true
}

// appendRecord appends the framing of one (key, value) record, CRC
// included, to dst and returns the extended slice. The CRC runs over
// the key and value bytes just appended, so framing allocates nothing
// once dst has room.
func appendRecord(dst []byte, key string, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val)))
	body := len(dst)
	dst = append(dst, key...)
	dst = append(dst, val...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Update(0, crc32.IEEETable, dst[body:]))
}

// encodeRecord frames one (key, value) record into a fresh buffer.
func encodeRecord(key string, val []byte) []byte {
	return appendRecord(make([]byte, 0, recordOverhead+len(key)+len(val)), key, val)
}

// parseRecord decodes the record at off, verifying lengths and CRC.
// It returns the offset just past the record.
func parseRecord(data []byte, off int) (key string, val []byte, next int, ok bool) {
	if off+8 > len(data) {
		return "", nil, 0, false
	}
	keyLen := int(binary.LittleEndian.Uint32(data[off:]))
	valLen := int(binary.LittleEndian.Uint32(data[off+4:]))
	if keyLen == 0 || keyLen >= maxKeyLen || valLen < 0 || int64(valLen) >= maxValLen {
		return "", nil, 0, false
	}
	off += 8
	if off+keyLen+valLen+4 > len(data) {
		return "", nil, 0, false
	}
	body := data[off : off+keyLen+valLen]
	sum := binary.LittleEndian.Uint32(data[off+keyLen+valLen:])
	if crc32.Update(0, crc32.IEEETable, body) != sum {
		return "", nil, 0, false
	}
	return string(body[:keyLen]), append([]byte(nil), body[keyLen:]...), off + keyLen + valLen + 4, true
}
