package main

// Daemon lives. The daemon is service.Server hosted in this process on
// a loopback listener, configured as edramd runs it by default plus the
// disk tier: workers = GOMAXPROCS, the default LRU, admission and
// budgets. No child process exists, so nothing outlives a run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edram/internal/core"
	"edram/internal/service"
)

// segmentName is the disk tier's segment file inside its directory.
const segmentName = "cache.log"

// daemon is one running daemon life.
type daemon struct {
	srv    *service.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

// previousLife runs an untimed daemon life on dir that serves the
// plan's history and drains, leaving the disk-tier segment every timed
// boot replays.
func previousLife(ctx context.Context, dir string, p *Plan) error {
	srv := service.NewServer(service.Config{CacheDir: dir})
	if err := srv.DiskCacheErr(); err != nil {
		srv.Close()
		return fmt.Errorf("previous life: disk tier: %w", err)
	}
	srv.MarkReady()
	for _, r := range p.PrevLife {
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			srv.Close()
			return fmt.Errorf("previous life: %s answered %d: %s", r.Path, rec.Code, rec.Body.String())
		}
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("previous life: drain: %w", err)
	}
	return nil
}

// copyFile copies the segment into a fresh disk-tier directory.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// boot starts a daemon life on dir the way edramd starts: open (and
// replay) the disk tier, run the warmup explores, mark ready, listen.
// It returns once /readyz first answers 200, with the elapsed time.
func boot(ctx context.Context, dir string, warm []core.Requirements) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv := service.NewServer(service.Config{CacheDir: dir})
	if err := srv.DiskCacheErr(); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("boot: disk tier: %w", err)
	}
	if err := srv.Warmup(ctx, warm); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	srv.MarkReady()
	sctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, cancel: cancel, done: make(chan error, 1)}
	addr := make(chan net.Addr, 1)
	go func() {
		d.done <- srv.ListenAndServe(sctx, "127.0.0.1:0", func(a net.Addr) { addr <- a })
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a.String()
	case err := <-d.done:
		cancel()
		srv.Close()
		return nil, 0, fmt.Errorf("boot: listen: %w", err)
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	probe := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("boot: readyz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if ctx.Err() != nil {
			d.stop()
			return nil, 0, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop drains the daemon (which snapshots the disk tier) and waits for
// ListenAndServe to return.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// reply is what one client saw for one request.
type reply struct {
	Start time.Time
	Dur   time.Duration
	Tag   string // X-Cache
	Size  int
	CRC   uint32
	Body  []byte // kept only when the life keeps bodies
	Err   error  // transport error or non-200 status
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// drive runs the closed loop: every client sends its next request only
// after the previous reply arrived, over its own single connection.
func drive(ctx context.Context, base string, seqs [numClients][]Request, keep bool) [numClients][]reply {
	var out [numClients][]reply
	var wg sync.WaitGroup
	for c := range seqs {
		out[c] = make([]reply, len(seqs[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			var buf bytes.Buffer
			for i, r := range seqs[c] {
				out[c][i] = roundTrip(ctx, client, base, r, &buf, keep)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func roundTrip(ctx context.Context, client *http.Client, base string, r Request, buf *bytes.Buffer, keep bool) reply {
	var rep reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		rep.Err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	rep.Start = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		rep.Err = err
		return rep
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rep.Dur = time.Since(rep.Start)
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Tag = resp.Header.Get("X-Cache")
	rep.Size = buf.Len()
	rep.CRC = crc32.Checksum(buf.Bytes(), crcTable)
	if resp.StatusCode != http.StatusOK {
		rep.Err = fmt.Errorf("%s answered %d: %s", r.Path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if keep {
		rep.Body = bytes.Clone(buf.Bytes())
	}
	return rep
}

// life is what one daemon life measured: boot, the closed loop over
// every client's sequence, and drain.
type life struct {
	Setup    time.Duration
	Window   time.Duration
	Replies  [numClients][]reply
	CPU      time.Duration // own-process user+sys over the window
	Allocs   uint64        // heap allocations over the window
	Bytes    uint64        // bytes allocated over the window
	LiveHeap uint64        // heap live after a forced GC at the window's end
	DiskLive int64         // disk-tier live value bytes at the window's end
}

// runLife copies the previous life's segment into a fresh directory,
// boots a daemon on it and drives every client's sequence through it once.
func runLife(ctx context.Context, tmp, segment string, p *Plan, keep bool) (*life, error) {
	dir, err := os.MkdirTemp(tmp, "life-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyFile(filepath.Join(dir, segmentName), segment); err != nil {
		return nil, fmt.Errorf("copying the segment: %w", err)
	}
	d, setup, err := boot(ctx, dir, p.Warmup)
	if err != nil {
		return nil, err
	}
	r := &life{Setup: setup}
	cpu0, ms0 := cpuTime(), readMem()
	t0 := time.Now()
	r.Replies = drive(ctx, d.base, p.Clients, keep)
	r.Window = time.Since(t0)
	cpu1, ms1 := cpuTime(), readMem()
	r.CPU = cpu1 - cpu0
	r.Allocs = ms1.Mallocs - ms0.Mallocs
	r.Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.LiveHeap = liveHeap()
	r.DiskLive = d.srv.DiskStats().LiveBytes
	if err := d.stop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return r, ctx.Err()
}
