package arch

import "testing"

// TestByFamily covers every family name, the heavyhex alias, an unknown
// name and a zero size: each name builds its family with at least n
// qubits (n = 1 included), and the bad inputs return errors instead of
// panicking.
func TestByFamily(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		kind    Kind
		qubits  int // exact size; 0 = at least n
		wantErr bool
	}{
		{name: "line", n: 30, kind: KindLine, qubits: 30},
		{name: "grid", n: 30, kind: KindGrid},
		{name: "sycamore", n: 30, kind: KindSycamore},
		{name: "heavy-hex", n: 30, kind: KindHeavyHex},
		{name: "heavyhex", n: 30, kind: KindHeavyHex},
		{name: "hexagon", n: 30, kind: KindHexagon},
		{name: "mumbai", n: 5, kind: KindHeavyHex, qubits: 27},
		{name: "line", n: 1, kind: KindLine, qubits: 1},
		{name: "grid", n: 1, kind: KindGrid},
		{name: "sycamore", n: 1, kind: KindSycamore},
		{name: "heavy-hex", n: 1, kind: KindHeavyHex},
		{name: "hexagon", n: 1, kind: KindHexagon},
		{name: "torus", n: 30, wantErr: true},
		{name: "", n: 30, wantErr: true},
		{name: "grid", n: 0, wantErr: true},
		{name: "mumbai", n: 0, wantErr: true},
		{name: "line", n: -3, wantErr: true},
	} {
		a, err := ByFamily(tc.name, tc.n)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ByFamily(%q, %d) = %s, want an error", tc.name, tc.n, a.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("ByFamily(%q, %d): %v", tc.name, tc.n, err)
			continue
		}
		if a.Kind != tc.kind {
			t.Errorf("ByFamily(%q, %d) kind = %s, want %s", tc.name, tc.n, a.Kind, tc.kind)
		}
		if tc.qubits != 0 && a.N() != tc.qubits {
			t.Errorf("ByFamily(%q, %d) has %d qubits, want %d", tc.name, tc.n, a.N(), tc.qubits)
		}
		if a.N() < tc.n {
			t.Errorf("ByFamily(%q, %d) has only %d qubits", tc.name, tc.n, a.N())
		}
	}
}
