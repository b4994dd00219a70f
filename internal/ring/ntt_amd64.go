package ring

// The lane passes of ntt_amd64.s, one set per tier, all with the same
// signatures: the DQ tier's …Lanes, the IFMA tier's …IFMA, which needs
// q < 2^50, and the wide IFMA tier's …IFMA51, which needs q < 2^51. Those
// that stand for one Go pass take its signature; nttQuartets… and
// inttQuartets… run a whole fused pass for nttPass and inttPass, which
// slice their arguments.

//go:noescape
func nttButterfliesLanes(x, y []uint64, w, ws, q uint64)

//go:noescape
func nttQuartetsLanes(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64)

//go:noescape
func nttLastPassLanes(a, tw1, tw2 []uint64, q uint64)

//go:noescape
func inttFirstPassLanes(a, twA, twB []uint64, q uint64)

//go:noescape
func inttQuartetsLanes(a []uint64, groups, t int, twA, twB []uint64, q uint64)

//go:noescape
func inttLastQuartetsLanes(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)

//go:noescape
func inttButterfliesLastLanes(x, y []uint64, ni, nis, wn, wns, q uint64)

//go:noescape
func nttButterfliesIFMA(x, y []uint64, w, ws, q uint64)

//go:noescape
func nttQuartetsIFMA(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64)

//go:noescape
func nttLastPassIFMA(a, tw1, tw2 []uint64, q uint64)

//go:noescape
func inttFirstPassIFMA(a, twA, twB []uint64, q uint64)

//go:noescape
func inttQuartetsIFMA(a []uint64, groups, t int, twA, twB []uint64, q uint64)

//go:noescape
func inttLastQuartetsIFMA(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)

//go:noescape
func inttButterfliesLastIFMA(x, y []uint64, ni, nis, wn, wns, q uint64)

//go:noescape
func nttButterfliesIFMA51(x, y []uint64, w, ws, q uint64)

//go:noescape
func nttQuartetsIFMA51(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64)

//go:noescape
func nttLastPassIFMA51(a, tw1, tw2 []uint64, q uint64)

//go:noescape
func inttFirstPassIFMA51(a, twA, twB []uint64, q uint64)

//go:noescape
func inttQuartetsIFMA51(a []uint64, groups, t int, twA, twB []uint64, q uint64)

//go:noescape
func inttLastQuartetsIFMA51(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)

//go:noescape
func inttButterfliesLastIFMA51(x, y []uint64, ni, nis, wn, wns, q uint64)
