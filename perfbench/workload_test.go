package main

import (
	"bytes"
	"testing"

	_ "disjunct/internal/semantics/all"
)

// bodies renders what the program receives: each warm-up body, then
// each timed body, in sending order.
func bodies(in inputs) [][]byte {
	var out [][]byte
	for _, i := range in.warm {
		out = append(out, in.distinct[i].body)
	}
	for _, i := range in.timed {
		out = append(out, in.distinct[i].body)
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for name, gen := range workloads {
		a, b := bodies(gen(7, 1)), bodies(gen(7, 1))
		if len(a) != len(b) {
			t.Fatalf("%s: %d bodies, then %d", name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two generations with seed 7:\n%s\n%s", name, i, a[i], b[i])
			}
		}
	}
}

func TestSeedChangesBodies(t *testing.T) {
	for name, gen := range workloads {
		a, b := bodies(gen(7, 1)), bodies(gen(8, 1))
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i], b[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate identical bodies", name)
		}
	}
}
