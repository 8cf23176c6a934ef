package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fm"
	"repro/internal/sim"
)

// The service workload's point universe: small-cap runs of 253.perlbmk,
// whose boot reaches a quiescent snapshot boundary after about 16k
// instructions. A prefix is everything but the cap (sim.Params
// SnapshotPrefix), so points sharing a prefix share one boot snapshot.
// Every point is on the deterministic fast engine (fast-parallel results
// are host-scheduling samples, not reproducible outputs).
const serviceWorkload = "253.perlbmk"

var (
	mixPredictors = []string{"gshare", "2bit", "97%", "95%", "perfect"}
	mixWidths     = []int{1, 2, 4}
	mixLinks      = []string{"drc", "pins", "coherent"}
	mixBPP        = []bool{false, true}
	mixPolls      = []int{0, 4} // Params.PollEveryBBs: the default (2) and every 4 basic blocks
	// mixCaps are above every prefix's snapshot point (checked when the
	// reference is recorded), so a later point of a prefix always resumes.
	mixCaps = []uint64{20_000, 21_000, 22_000, 23_000, 24_000, 25_000, 26_000, 27_000}
)

// point is one service job.
type point struct {
	Pred  string
	Width int
	Link  string
	BPP   bool
	Poll  int
	Cap   uint64
}

func (p point) prefix() string {
	return fmt.Sprintf("%s/%s/w%d/%s/bpp=%t/poll=%d", serviceWorkload, p.Pred, p.Width, p.Link, p.BPP, p.Poll)
}

func (p point) key() string { return fmt.Sprintf("%s/cap=%d", p.prefix(), p.Cap) }

func (p point) params() sim.Params {
	return sim.Params{
		Workload:        serviceWorkload,
		Predictor:       p.Pred,
		IssueWidth:      p.Width,
		Link:            p.Link,
		BPP:             p.BPP,
		PollEveryBBs:    p.Poll,
		MaxInstructions: p.Cap,
		ICacheEntries:   fm.DefaultICacheEntries,
		SuperblockLen:   fm.DefaultSuperblockLen,
	}
}

// ledgerPoint is the service point whose boot image the per-layer ledger
// and the snapshot probe use: the default target configuration, which is
// what core.DefaultConfig builds.
var ledgerPoint = point{Pred: "gshare", Width: 2, Link: "drc", Cap: mixCaps[0]}

// prefixes lists the universe's prefixes (as points with Cap 0).
func prefixes() []point {
	var out []point
	for _, pr := range mixPredictors {
		for _, w := range mixWidths {
			for _, l := range mixLinks {
				for _, b := range mixBPP {
					for _, poll := range mixPolls {
						out = append(out, point{Pred: pr, Width: w, Link: l, BPP: b, Poll: poll})
					}
				}
			}
		}
	}
	return out
}

// universe lists every point a mix can contain; the reference holds one
// result digest per point.
func universe() []point {
	var out []point
	for _, pre := range prefixes() {
		for _, c := range mixCaps {
			q := pre
			q.Cap = c
			out = append(out, q)
		}
	}
	return out
}

// Item kinds. A cold miss is the first point of a new prefix (boots from
// reset and captures the prefix's snapshot); a warm miss is a new cap on
// a prefix already booted (resumes from the snapshot); a repeat resubmits
// a completed point (a result-cache hit).
const (
	cold = iota
	warm
	repeat
)

var kindNames = [...]string{"cold", "warm", "repeat"}

// item is one submission of the mix. deps are the indexes of the items
// that must complete before it is submitted: a warm miss waits for its
// prefix's cold miss, a repeat for the misses of its round (which come
// after the point's first run), and a round's misses for the previous
// round's repeats. That keeps every cache and snapshot outcome, and so
// every count, a function of the items submitted rather than of host
// timing.
type item struct {
	pt   point
	kind int
	deps []int
}

// Mix shape, taken from how the repository itself drives the service:
// scripts/service_smoke.sh submits a sweep of three points that share one
// boot prefix and differ only in the cap, then submits the same sweep
// again; scripts/cluster_smoke.sh and the README's quickstart likewise
// re-submit a finished sweep or point and expect cache hits. So the mix is
// a sequence of such user sweeps: one prefix at sweepCaps caps (the first
// a cold miss that boots and captures the snapshot, the others warm
// misses that resume from it), then the same sweepCaps points again (all
// cache hits). That is 1 cold : 2 warm : 3 repeats, half the jobs hits.
//
// Consecutive sweeps overlap so that both closed-loop clients stay busy:
// round r holds the cold miss of prefix r and the warm misses of prefix
// r-1 (whose cold miss ran in round r-1), then the re-submission of prefix
// r-1's sweep. The re-submission waits for the round's misses and the
// next round waits for it, so hit latency measures the cache path, not
// whichever engine run shares the two cores at the moment.
const sweepCaps = 3

// genMix builds the submission sequence from the seed, which picks the
// prefix order and each prefix's caps.
func genMix(seed int64) []item {
	r := rand.New(rand.NewSource(seed))
	pres := stratified(r)
	caps := make([][]uint64, len(pres))
	sweeps := make([][]int, len(pres)) // item index of each point of a prefix's sweep
	var seq []item
	miss := func(k, kind int, deps []int) int {
		q := pres[k]
		q.Cap = caps[k][len(sweeps[k])]
		sweeps[k] = append(sweeps[k], len(seq))
		seq = append(seq, item{pt: q, kind: kind, deps: deps})
		return len(seq) - 1
	}
	var repeats []int // the previous round's
	for round := 0; round <= len(pres); round++ {
		var misses []int
		if round < len(pres) {
			caps[round] = append([]uint64(nil), mixCaps...)
			r.Shuffle(len(caps[round]), func(i, j int) { caps[round][i], caps[round][j] = caps[round][j], caps[round][i] })
			misses = append(misses, miss(round, cold, repeats))
		}
		if k := round - 1; k >= 0 {
			for c := 1; c < sweepCaps; c++ {
				misses = append(misses, miss(k, warm, append([]int{sweeps[k][0]}, repeats...)))
			}
			repeats = nil
			for _, first := range sweeps[k] {
				repeats = append(repeats, len(seq))
				seq = append(seq, item{pt: seq[first].pt, kind: repeat, deps: misses})
			}
		}
	}
	return seq
}

// stratified orders the prefixes so that every run of len(strata)
// consecutive prefixes holds one prefix of each predictor × issue width
// (the knobs that move a run's cost most); the seed shuffles each
// stratum's members and the strata order within each cycle. Every seed's
// mix then costs about the same per item.
func stratified(r *rand.Rand) []point {
	var strata [][]point
	for _, pr := range mixPredictors {
		for _, w := range mixWidths {
			var members []point
			for _, q := range prefixes() {
				if q.Pred == pr && q.Width == w {
					members = append(members, q)
				}
			}
			r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			strata = append(strata, members)
		}
	}
	var out []point
	for c := 0; c < len(strata[0]); c++ {
		order := r.Perm(len(strata))
		for _, k := range order {
			out = append(out, strata[k][c])
		}
	}
	return out
}
