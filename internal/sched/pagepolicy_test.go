package sched

import (
	"math/rand"
	"testing"

	"edram/internal/traffic"
)

func TestClosedPageHurtsStreams(t *testing.T) {
	// A pure stream lives on open-page hits: closing the page after
	// every access must cost bandwidth.
	mk := func() []Client {
		return []Client{seqClient(0, "stream", 0, 5, 1200)}
	}
	open, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	closed, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin, ClosedPage: true}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if closed.SustainedGBps >= open.SustainedGBps {
		t.Fatalf("closed page must hurt streaming: %.2f vs %.2f GB/s",
			closed.SustainedGBps, open.SustainedGBps)
	}
	if closed.HitRate > 0.01 {
		t.Errorf("closed-page hit rate %.3f should be ~0", closed.HitRate)
	}
	if open.HitRate < 0.9 {
		t.Errorf("open-page stream hit rate %.2f too low", open.HitRate)
	}
}

func TestClosedPageHelpsRandomMix(t *testing.T) {
	// Random single-access traffic never reuses a page: with the page
	// closed eagerly, the next access pays only tRP-overlapped ACT
	// instead of a serialized PRE+ACT conflict.
	mk := func() []Client {
		return []Client{
			{Name: "r0", Gen: &traffic.Random{ClientID: 0, WindowB: 2 << 20, Bits: 64, RateGB: 2, Count: 1200, Rng: rand.New(rand.NewSource(21))}},
			{Name: "r1", Gen: &traffic.Random{ClientID: 1, StartB: 2 << 20, WindowB: 2 << 20, Bits: 64, RateGB: 2, Count: 1200, Rng: rand.New(rand.NewSource(22))}},
		}
	}
	open, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	closed, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin, ClosedPage: true}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if closed.SustainedGBps <= open.SustainedGBps {
		t.Fatalf("closed page must help a no-locality mix: %.3f vs %.3f GB/s",
			closed.SustainedGBps, open.SustainedGBps)
	}
	// Under closed-page every access sees an empty bank.
	if closed.Device.PageMisses != 0 {
		t.Errorf("closed-page run saw %d conflict misses", closed.Device.PageMisses)
	}
}
