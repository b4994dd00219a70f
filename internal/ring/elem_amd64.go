package ring

// The lane rows of elem_amd64.s. Each takes its Go row's slices and the
// constants it reads from the modulus, and runs over the rows' common
// length rounded down to a multiple of 8.

//go:noescape
func mulRowLanes(a, b, out []uint64, q, qInv uint64)

//go:noescape
func mulAddRowLanes(a, b, out []uint64, q, qInv uint64)

//go:noescape
func gatherMulRowLanes(a []uint64, table []int, b, out []uint64, q, qInv uint64)

//go:noescape
func gatherMulAddRowLanes(a []uint64, table []int, b, out []uint64, q, qInv uint64)

//go:noescape
func mulShoupRowLanes(a, out []uint64, w, ws, q uint64)

//go:noescape
func mulShoupAddRowLanes(a, out []uint64, w, ws, q uint64)

//go:noescape
func subMulShoupRowLanes(a, b, out []uint64, w, ws, q uint64)

//go:noescape
func reduceAccRowLanes(accLo, accHi, out []uint64, q, qInv, fold uint64)
