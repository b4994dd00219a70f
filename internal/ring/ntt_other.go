//go:build !amd64

package ring

func nttButterfliesLanes(x, y []uint64, w, ws, q uint64) { noNTTLanes() }

func nttQuartetsLanes(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64) { noNTTLanes() }

func nttLastPassLanes(a, tw1, tw2 []uint64, q uint64) { noNTTLanes() }

func inttFirstPassLanes(a, twA, twB []uint64, q uint64) { noNTTLanes() }

func inttQuartetsLanes(a []uint64, groups, t int, twA, twB []uint64, q uint64) { noNTTLanes() }

func inttLastQuartetsLanes(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64) {
	noNTTLanes()
}

func inttButterfliesLastLanes(x, y []uint64, ni, nis, wn, wns, q uint64) { noNTTLanes() }

// noNTTLanes stands in for the lane passes, which useNTTLanes keeps
// unreachable off amd64.
func noNTTLanes() { panic("ring: lane NTT pass without AVX-512") }
