package main

import "testing"

// TestMixShape checks the invariants driveMix relies on: every dependency
// points backwards (so a client never waits on an item nobody claimed),
// a point is first submitted as a miss and repeated only once that miss is
// done, a warm miss waits for its prefix's cold miss, and the mix keeps the
// 1 cold : 2 warm : 3 repeats proportions.
func TestMixShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		items := genMix(seed)
		var n [3]int
		missAt := map[string]int{}
		coldAt := map[string]int{}
		for i, it := range items {
			n[it.kind]++
			for _, d := range it.deps {
				if d >= i {
					t.Fatalf("seed %d: item %d depends on later item %d", seed, i, d)
				}
			}
			key, pre := it.pt.key(), it.pt.prefix()
			switch it.kind {
			case cold:
				if _, ok := coldAt[pre]; ok {
					t.Fatalf("seed %d: prefix %s cold twice", seed, pre)
				}
				coldAt[pre] = i
			case warm:
				c, ok := coldAt[pre]
				if !ok || !contains(it.deps, c) {
					t.Fatalf("seed %d: warm miss %d does not wait for its cold miss", seed, i)
				}
			case repeat:
				m, ok := missAt[key]
				if !ok {
					t.Fatalf("seed %d: repeat %d of %s before its miss", seed, i, key)
				}
				if !waitsFor(items, i, m) {
					t.Fatalf("seed %d: repeat %d does not wait for its miss %d", seed, i, m)
				}
				continue
			}
			if _, ok := missAt[key]; ok {
				t.Fatalf("seed %d: point %s missed twice", seed, key)
			}
			missAt[key] = i
		}
		if n[warm] != 2*n[cold] || n[repeat] != 3*n[cold] {
			t.Fatalf("seed %d: %d cold, %d warm, %d repeats; want 1:2:3", seed, n[cold], n[warm], n[repeat])
		}
	}
}

// waitsFor reports whether item i depends on item j, directly or through
// other items.
func waitsFor(items []item, i, j int) bool {
	seen := map[int]bool{}
	stack := []int{i}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range items[k].deps {
			if d == j {
				return true
			}
			if d > j && !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	return false
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
