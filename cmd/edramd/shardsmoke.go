// The shard-smoke self-test: the real 3-process topology `make
// shard-smoke` and CI run. The process re-executes itself twice as
// peer daemons on loopback ports, hosts a coordinator configured with
// those peers, and verifies the scale-out contract end to end —
// remote-shard byte parity with a single-process sweep, SIGKILL of a
// peer surviving via local re-execution, and a sharded explore
// through the async job API after the kill.

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"edram/internal/service"
)

// unmarshalStatus decodes a job status JSON body.
func unmarshalStatus(body string, v any) error {
	if err := json.Unmarshal([]byte(body), v); err != nil {
		return fmt.Errorf("job status response %q: %v", body, err)
	}
	return nil
}

// smoke bodies: three distinct explores (different power caps) so
// each parity check is a genuine computation, never a cache hit.
const (
	shardSmokeBodyA = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5}`
	shardSmokeBodyB = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5,"max_power_mw":500.5}`
	shardSmokeBodyC = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5,"max_power_mw":600.5}`
)

// peerProc is one spawned peer daemon.
type peerProc struct {
	cmd  *exec.Cmd
	base string
}

func (p *peerProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	_ = p.cmd.Wait()
}

// startPeer re-executes this binary as a plain daemon on a random
// loopback port and waits until it reports its address and answers
// /readyz.
func startPeer(client *http.Client) (*peerProc, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %v", err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting peer: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "edramd: listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	p := &peerProc{cmd: cmd}
	select {
	case a := <-addrCh:
		p.base = "http://" + a
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("peer never reported a listening address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("peer %s never became ready", p.base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// hostServer runs an in-process server on a loopback port and returns
// its base URL plus a drain func.
func hostServer(cfg service.Config) (string, func() error, error) {
	srv := service.NewServer(cfg)
	if err := srv.DiskCacheErr(); err != nil {
		return "", nil, fmt.Errorf("disk cache: %v", err)
	}
	srv.MarkReady()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), func() error {
			cancel()
			return <-errCh
		}, nil
	case err := <-errCh:
		cancel()
		return "", nil, fmt.Errorf("server did not start: %v", err)
	}
}

// runShardSmoke is the scale-out end-to-end self-test.
func runShardSmoke() error {
	client := &http.Client{Timeout: 2 * time.Minute}

	// Reference: the canonical single-process bytes every sharded
	// topology must reproduce.
	refBase, refStop, err := hostServer(service.Config{AccessLog: io.Discard, Workers: 2})
	if err != nil {
		return fmt.Errorf("reference server: %v", err)
	}
	refs := map[string]string{}
	for _, body := range []string{shardSmokeBodyA, shardSmokeBodyB, shardSmokeBodyC} {
		b, err := fetch(client, "POST", refBase+"/v1/explore", body)
		if err != nil {
			refStop()
			return fmt.Errorf("reference explore: %v", err)
		}
		refs[body] = b
	}
	if err := refStop(); err != nil {
		return fmt.Errorf("reference drain: %v", err)
	}

	// The 3-process topology: two real peer daemons + a coordinator
	// sharding across them, with the disk-logged cache and job API on.
	peer1, err := startPeer(client)
	if err != nil {
		return err
	}
	defer peer1.kill()
	peer2, err := startPeer(client)
	if err != nil {
		return err
	}
	defer peer2.kill()

	cacheDir, err := os.MkdirTemp("", "edramd-shard-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	jobDir, err := os.MkdirTemp("", "edramd-shard-smoke-jobs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jobDir)
	base, stop, err := hostServer(service.Config{
		AccessLog:  io.Discard,
		Workers:    2,
		Peers:      []string{peer1.base, peer2.base},
		ShardParts: 4,
		CacheDir:   cacheDir,
		JobDir:     jobDir,
	})
	if err != nil {
		return fmt.Errorf("coordinator: %v", err)
	}
	defer stop()

	// 1. Remote-shard parity with both peers alive.
	got, err := fetch(client, "POST", base+"/v1/explore", shardSmokeBodyA)
	if err != nil {
		return fmt.Errorf("sharded explore: %v", err)
	}
	if got != refs[shardSmokeBodyA] {
		return fmt.Errorf("sharded explore differs from single-process bytes (%d vs %d bytes)",
			len(got), len(refs[shardSmokeBodyA]))
	}

	// 2. SIGKILL one peer: its partitions must re-execute on the
	// survivors with the response still byte-identical.
	peer1.kill()
	got, err = fetch(client, "POST", base+"/v1/explore", shardSmokeBodyC)
	if err != nil {
		return fmt.Errorf("explore after peer kill: %v", err)
	}
	if got != refs[shardSmokeBodyC] {
		return fmt.Errorf("explore after peer kill differs from single-process bytes (%d vs %d bytes)",
			len(got), len(refs[shardSmokeBodyC]))
	}

	// 3. The job API over the degraded topology.
	if err := shardSmokeJob(client, base, refs[shardSmokeBodyB]); err != nil {
		return fmt.Errorf("sharded job: %v", err)
	}

	// 4. The scrape tells the same story: sharded explores ran, the
	// dead peer was noticed, the disk-logged result cache is exported.
	metricsBody, err := fetch(client, "GET", base+"/metrics", "")
	if err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	for _, series := range []string{
		"edramd_shard_explores_total",
		`edramd_shard_partitions_total{target="remote"}`,
		"edramd_shard_peer_failures_total",
		"edramd_disk_cache_entries",
		`edramd_cache_tier_misses_total{tier="memory"}`,
	} {
		if !strings.Contains(metricsBody, series) {
			return fmt.Errorf("metrics: series %s missing from scrape", series)
		}
	}
	if strings.Contains(metricsBody, "edramd_shard_peer_failures_total 0\n") {
		return fmt.Errorf("metrics: peer kill was not recorded in edramd_shard_peer_failures_total")
	}
	return nil
}

// shardSmokeJob submits a sharded explore through the async job API
// and requires the result bytes to match the single-process sweep.
func shardSmokeJob(client *http.Client, base, want string) error {
	body, err := fetch(client, "POST", base+"/v1/jobs",
		`{"kind":"explore","explore":`+shardSmokeBodyB+`}`)
	if err != nil && !strings.Contains(body, `"state"`) {
		return fmt.Errorf("submit: %v", err)
	}
	var status struct {
		ID         string `json:"id"`
		State      string `json:"state"`
		Error      string `json:"error"`
		ResultPath string `json:"result_path"`
	}
	if err := unmarshalStatus(body, &status); err != nil {
		return err
	}
	for i := 0; i < 600 && (status.State == "running" || status.State == "pending"); i++ {
		time.Sleep(100 * time.Millisecond)
		b, err := fetch(client, "GET", base+"/v1/jobs/"+status.ID, "")
		if err != nil {
			return fmt.Errorf("poll: %v", err)
		}
		if err := unmarshalStatus(b, &status); err != nil {
			return err
		}
	}
	if status.State != "succeeded" {
		return fmt.Errorf("job finished %q (error %q), want succeeded", status.State, status.Error)
	}
	got, err := fetch(client, "GET", base+status.ResultPath, "")
	if err != nil {
		return fmt.Errorf("result: %v", err)
	}
	if got != want {
		return fmt.Errorf("job result differs from single-process bytes (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
