package arch

import "fmt"

// ByFamily returns the named family's minimum near-square architecture
// with at least n qubits — the one table of family names the command-line
// tools, the service and the benchmarks accept: line, grid, sycamore,
// heavy-hex (alias heavyhex), hexagon and mumbai. Mumbai is a fixed
// 27-qubit device and ignores n. An unknown name or n < 1 is an error.
func ByFamily(name string, n int) (*Arch, error) {
	if n < 1 {
		return nil, fmt.Errorf("arch: %s needs at least 1 qubit, got %d", name, n)
	}
	switch name {
	case "line":
		return Line(n), nil
	case "grid":
		return GridN(n), nil
	case "sycamore":
		return SycamoreN(n), nil
	case "heavy-hex", "heavyhex":
		return HeavyHexN(n), nil
	case "hexagon":
		return HexagonN(n), nil
	case "mumbai":
		return Mumbai(), nil
	}
	return nil, fmt.Errorf("arch: unknown architecture family %q", name)
}
