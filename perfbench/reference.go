package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/sim"
)

// referenceFile is where --record writes, relative to the repository root.
const referenceFile = "perfbench/reference.json"

//go:embed reference.json
var referenceJSON []byte

// simRef is the recorded outcome of one simulation workload.
type simRef struct {
	Result string   `json:"result"` // the exact Result JSON
	Counts fmCounts `json:"counts"`
}

// reference holds the modeled outputs recorded at the commit that defined
// the benchmark. Every run and every job must reproduce them byte for
// byte: a host-speed change that moves a modeled number is a failure.
type reference struct {
	Sim map[string]simRef `json:"sim"`
	// Service maps point.key() to the SHA-256 of the job's result bytes.
	Service map[string]string `json:"service"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("decode reference: %w", err)
	}
	return &ref, nil
}

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// snapStore is an in-process sim.SnapshotStore.
type snapStore struct {
	mu sync.Mutex
	m  map[string]sim.Snapshot
}

func newSnapStore() *snapStore { return &snapStore{m: map[string]sim.Snapshot{}} }

func (s *snapStore) GetSnapshot(prefix string) (sim.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[prefix]
	return v, ok
}

func (s *snapStore) PutSnapshot(v sim.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[v.Prefix] = v
}

// recordReference runs every simulation workload and every service point
// from reset (an empty snapshot store, so each run captures but none
// resumes) and writes their outputs to referenceFile. It also checks that
// every prefix's snapshot falls below the smallest cap, so that warm
// misses resume. Two goroutines share the points.
func recordReference() error {
	ref := reference{Sim: map[string]simRef{}, Service: map[string]string{}}
	snapshotIN := map[string]uint64{} // prefix → IN of its boot snapshot
	for name, w := range simWorkloads {
		e, err := sim.New("fast", w.params())
		if err != nil {
			return err
		}
		r, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return err
		}
		ref.Sim[name] = simRef{Result: string(raw), Counts: countsOf(e)}
		fmt.Fprintf(os.Stderr, "recorded %s: %s\n", name, r)
	}

	pts := universe()
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	next := 0
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(pts) {
					return
				}
				pt := pts[i]
				p := pt.params()
				store := newSnapStore()
				p.Snapshots = store
				r, err := sim.Run("fast", p)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", pt.key(), err)
					return
				}
				raw, err := json.Marshal(r)
				if err != nil {
					errs <- err
					return
				}
				snaps := store.m
				if len(snaps) != 1 {
					errs <- fmt.Errorf("%s: captured %d snapshots, want 1", pt.key(), len(snaps))
					return
				}
				var in uint64
				for _, s := range snaps {
					in = s.IN
				}
				if in >= mixCaps[0] {
					errs <- fmt.Errorf("%s: snapshot at IN %d is not below the smallest cap %d", pt.key(), in, mixCaps[0])
					return
				}
				mu.Lock()
				ref.Service[pt.key()] = digest(raw)
				if old, ok := snapshotIN[pt.prefix()]; ok && old != in {
					mu.Unlock()
					errs <- fmt.Errorf("%s: snapshot IN %d differs from %d at another cap", pt.key(), in, old)
					return
				}
				snapshotIN[pt.prefix()] = in
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	raw, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d service points over %d prefixes\n", len(ref.Service), len(snapshotIN))
	return os.WriteFile(referenceFile, append(raw, '\n'), 0o644)
}

// sortedKeys is used where output order must not depend on map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
