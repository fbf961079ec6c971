package edram_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edram"
	"edram/internal/service"
)

// TestCLIServiceParity drives the real edramx binary with -json and the
// real service stack over loopback HTTP, and requires the two outputs
// to be byte-identical — the CLI and the daemon share one schema and
// one encoder, and this test keeps them from drifting apart.
func TestCLIServiceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := filepath.Join(t.TempDir(), "edramx")
	build := exec.Command("go", "build", "-o", bin, "./cmd/edramx")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building edramx: %v\n%s", err, out)
	}
	// An infeasible request fails the table path with the nearest miss
	// of the full, unpruned stream.
	miss := exec.Command(bin, "-capacity", "16", "-bandwidth", "500", "-quiet")
	var stderr strings.Builder
	miss.Stderr = &stderr
	err := miss.Run()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 ||
		!strings.Contains(stderr.String(), "sustained 0.21 GB/s < required 500.00") {
		t.Errorf("edramx -bandwidth 500: %v, stderr %q; want exit 1 naming the closest miss", err, stderr.String())
	}

	cli := exec.Command(bin, "-capacity", "16", "-bandwidth", "1", "-hitrate", "0.5", "-quiet", "-json")
	cliOut, err := cli.Output()
	if err != nil {
		t.Fatalf("edramx -json: %v", err)
	}

	srv := edram.NewService(edram.ServiceConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	servErr := make(chan error, 1)
	go func() {
		servErr <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-servErr:
		t.Fatalf("server did not start: %v", err)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	// The body mirrors the CLI flags exactly, including edramx's
	// default defect density.
	resp, err := client.Post(base+"/v1/explore", "application/json",
		strings.NewReader(`{"capacity_mbit":16,"bandwidth_gbps":1,"hit_rate":0.5,"defects_per_cm2":0.8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	svcOut, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, svcOut)
	}

	if string(cliOut) != string(svcOut) {
		t.Errorf("edramx -json and POST /v1/explore bodies differ:\n cli: %.200s\n svc: %.200s", cliOut, svcOut)
	}
}

// TestFacadeServiceTypes pins the facade re-exports: the wire types and
// builders are reachable from the root package and produce the same
// encoding as the internal layer.
func TestFacadeServiceTypes(t *testing.T) {
	req := edram.Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5}
	got, err := edram.BuildExploreResponse(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.BuildExplore(context.Background(), req, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := edram.EncodeResponse(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := service.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Error("facade and internal encodings differ")
	}
	var _ *edram.ExploreResponse = got
}
