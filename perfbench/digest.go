package main

// The controller-sim digest: a SHA-256 over every simulate response of
// one cycle, life by life in client order. It is printed (not gated) by every
// controller-sim run, and --digest recomputes it for a seed straight
// from service.BuildSimulate without the daemon, so a simulator change
// can show it leaves every simulated statistic identical: run
// --digest on the parent and on the change and compare the lines.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"edram/internal/service"
)

// digestReplies digests the verified bodies of a controller-sim cycle.
func digestReplies(lives []*life) (string, int) {
	h := sha256.New()
	n := 0
	for _, r := range lives {
		for _, reps := range r.Replies {
			for _, rep := range reps {
				h.Write(rep.Body)
				n++
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// simDigest computes the same digest for the controller-sim plan of
// seed by calling the simulate builder directly.
func simDigest(seed int64) (string, int, error) {
	lives, err := NewRun(controllerSim, seed)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	n := 0
	for _, p := range lives {
		for _, seq := range p.Clients {
			for _, r := range seq {
				var req service.SimulateRequest
				if err := json.Unmarshal(r.Body, &req); err != nil {
					return "", 0, err
				}
				resp, err := service.BuildSimulate(req)
				if err != nil {
					return "", 0, err
				}
				b, err := service.Encode(resp)
				if err != nil {
					return "", 0, err
				}
				h.Write(b)
				n++
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
