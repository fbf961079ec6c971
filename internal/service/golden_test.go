package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"edram/internal/core"
	"edram/internal/tech"
)

// TestExploreGoldenDigests pins absolute Seq numbering and the explore
// wire bytes against fixed digests. Every other parity test compares
// two paths that share one enumerator, so a change that renumbers the
// design space consistently everywhere would pass them all. Seq
// numbers reach cached bytes and checkpoints, so these digests must
// not move when the sweep's internals change.
func TestExploreGoldenDigests(t *testing.T) {
	ctx := context.Background()
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	explores := []struct {
		name string
		req  core.Requirements
		want string
	}{
		{"16mbit-default", core.Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5},
			"3ce6921fdf4cf12df08a9dbf02bdd4f9a264c418fc6f96e76da55111e51ad4a3"},
		{"13mbit-one-org", core.Requirements{CapacityMbit: 13, BandwidthGBps: 1, HitRate: 0.5},
			"1804b490fca95a88bb43fba566d4773b37096fbd2f2bb745a0e673d1295b4c34"},
		{"8mbit-all-processes", core.Requirements{CapacityMbit: 8, BandwidthGBps: 1, HitRate: 0.5,
			Processes: tech.Processes()},
			"7666ca97cc236f2d7919959b1d752725ea0de87ee782efa3b7e02b4659c2c255"},
		// The area cap skips the 256-Kbit block and the clock floor the
		// 1-Mbit one, so whole interface widths drop out of the sweep.
		{"area-clock-iface-skips", core.Requirements{CapacityMbit: 32, BandwidthGBps: 0.2, HitRate: 0.7,
			MaxAreaMm2: 44, MinClockMHz: 160},
			"3bf11eedc8f193d9ac5f7c9e8bf8b89c474c7a97a779e6269b00984fbe675fa6"},
		{"nothing-feasible", core.Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxPowerMW: 5},
			"e04048e505b82e183f4e28318cfb28733b88c9503cd863b615b55fd7f07674fe"},
	}
	for _, tc := range explores {
		resp, err := BuildExplore(ctx, tc.req, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := Encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(b); got != tc.want {
			t.Errorf("%s: explore digest %s, want %s", tc.name, got, tc.want)
		}
	}

	errs := []struct {
		name string
		run  func() error
		want string
	}{
		{"recommend-nothing-feasible", func() error {
			_, err := BuildRecommend(ctx, core.Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxPowerMW: 5}, 2)
			return err
		}, "core: no feasible configuration; closest misses: [power 211 mW > cap 5]"},
		{"explore-nothing-buildable", func() error {
			_, err := BuildExplore(ctx, core.Requirements{CapacityMbit: 1000, BandwidthGBps: 1, HitRate: 0.5}, 2, nil)
			return err
		}, "no buildable configuration for {CapacityMbit:1000 BandwidthGBps:1 HitRate:0.5 MaxAreaMm2:0 MaxPowerMW:0 MinClockMHz:0 Processes:[] DefectsPerCm2:0}"},
	}
	for _, tc := range errs {
		err := tc.run()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}

	// The Seqs a window of the sweep streams, pruned and unpruned.
	win := core.Requirements{CapacityMbit: 32, BandwidthGBps: 2.5, HitRate: 0.7, MaxAreaMm2: 60, MinClockMHz: 80}
	windows := []struct {
		name string
		opts []core.ExploreOption
		want string
	}{
		{"window-unpruned", nil, "b5802f141fe5a11312c40320d61eba7f4b8d3019fe37fe2b2bde71ed7b5f73bb"},
		{"window-pruned", []core.ExploreOption{core.WithPruning()}, "820a25e19f541e98b6ab42375e4686289ca5563febd2ff2518c211419672b75d"},
	}
	for _, tc := range windows {
		var seqs []int
		opts := append([]core.ExploreOption{core.WithWorkers(2), core.WithSeqRange(701, 1555),
			core.WithObserver(func(c core.Candidate) { seqs = append(seqs, c.Seq) })}, tc.opts...)
		if _, err := core.SweepContext(ctx, win, opts...); err != nil {
			t.Fatal(err)
		}
		sort.Ints(seqs)
		var sb strings.Builder
		for _, s := range seqs {
			fmt.Fprintf(&sb, "%d\n", s)
		}
		if got := digest([]byte(sb.String())); got != tc.want {
			t.Errorf("%s: %d seqs, digest %s, want %s", tc.name, len(seqs), got, tc.want)
		}
	}
}
