package arch

// This file models the PE-coefficient mapping of Sections 5.1 and 5.5, the
// oracle of TestAutomorphismPEPermutation (the simulator charges HRot's
// automorphism as NoC bytes and never routes residues PE by PE): the
// N residues of a residue polynomial are viewed as an (Nx, Ny, Nz) =
// (PEHor, PEVer, N/PEs) cube, with the residue of coefficient index
// i = x + Nx·y + Nx·Ny·z held by the PE at grid coordinate (x, y).

// PEOfCoeff returns the (x, y) grid coordinate holding coefficient index i.
func (c Config) PEOfCoeff(i, n int) (x, y int) {
	nx := c.PEHor
	ny := c.PEVer
	x = i % nx
	y = (i / nx) % ny
	return x, y
}

// AutomorphismDestination returns the PE that receives PE (x,y)'s residues
// under the automorphism σ_g: i ↦ i·g mod N (Eq. 5 applied to the index
// lattice). Section 5.5's key observation is that this is well defined:
// *all* residues of one PE move to the same destination PE, because indices
// held by a PE differ only in the high bit-field Nx·Ny·z, and multiplying by
// odd g preserves the low bit-field's congruence class modulo Nx·Ny.
func (c Config) AutomorphismDestination(x, y int, g uint64, n int) (dx, dy int) {
	i := x + c.PEHor*y // z = 0 representative
	di := int(uint64(i) * g % uint64(n))
	return c.PEOfCoeff(di, n)
}

// AutomorphismIsPermutation verifies that σ_g induces a *permutation* on the
// PE grid (every PE sends to exactly one PE and receives from exactly one) —
// the property that lets the xbar-based PE-PE NoC route HRot traffic without
// contention, with a communication pattern known ahead of time.
func (c Config) AutomorphismIsPermutation(g uint64, n int) bool {
	if g%2 == 0 {
		return false // Galois elements are odd
	}
	seen := make(map[[2]int]bool, c.PEs())
	for y := 0; y < c.PEVer; y++ {
		for x := 0; x < c.PEHor; x++ {
			// All z-slices of this PE must agree on the destination.
			base := x + c.PEHor*y
			dx0, dy0 := c.AutomorphismDestination(x, y, g, n)
			for z := 1; z < n/c.PEs(); z++ {
				i := base + c.PEs()*z
				di := int(uint64(i) * g % uint64(n))
				if dx, dy := c.PEOfCoeff(di, n); dx != dx0 || dy != dy0 {
					return false
				}
			}
			dst := [2]int{dx0, dy0}
			if seen[dst] {
				return false
			}
			seen[dst] = true
		}
	}
	return len(seen) == c.PEs()
}
