package session

import (
	"testing"

	"disjunct/internal/logic"
)

// TestRawKeyGolden pins RawKey's bytes. The router's ring, the
// keyspace arcs and every persisted verdict key hash this
// string, so a change to one byte re-homes keys across a cluster and
// orphans stored verdicts.
func TestRawKeyGolden(t *testing.T) {
	cnf := logic.CNF{
		{logic.PosLit(0), logic.NegLit(1)},
		{logic.PosLit(2)},
		{logic.NegLit(70), logic.PosLit(0), logic.PosLit(0)},
		{},
	}
	for _, c := range []struct {
		n    int
		cnf  logic.CNF
		want string
	}{
		{3, cnf, "\x03\x04\x02\x00\x03\x01\x04\x03\x8d\x01\x00\x00\x00"},
		{71, cnf, "G\x04\x02\x00\x03\x01\x04\x03\x8d\x01\x00\x00\x00"},
		{0, nil, "\x00\x00"},
		{200, logic.CNF{}, "\xc8\x01\x00"},
	} {
		if got := RawKey(c.n, c.cnf); got != c.want {
			t.Errorf("RawKey(%d, %v) = %q, want %q", c.n, c.cnf, got, c.want)
		}
	}
	text := "a | b :- c, not d.\nc.\n:- a, b.\n"
	if got, want := Compile(text, mustParse(t, text)).Raw, "\x04\x03\x04\x00\x02\x05\x06\x01\x04\x02\x01\x03"; got != want {
		t.Errorf("Compile(%q).Raw = %q, want %q", text, got, want)
	}
}
