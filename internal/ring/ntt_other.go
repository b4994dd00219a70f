//go:build !amd64

package ring

func nttButterfliesLanes(x, y []uint64, w, ws, q uint64) { noLanes() }

func nttQuartetsLanes(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64) { noLanes() }

func nttLastPassLanes(a, tw1, tw2 []uint64, q uint64) { noLanes() }

func inttFirstPassLanes(a, twA, twB []uint64, q uint64) { noLanes() }

func inttQuartetsLanes(a []uint64, groups, t int, twA, twB []uint64, q uint64) { noLanes() }

func inttLastQuartetsLanes(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64) {
	noLanes()
}

func inttButterfliesLastLanes(x, y []uint64, ni, nis, wn, wns, q uint64) { noLanes() }

func nttButterfliesIFMA(x, y []uint64, w, ws, q uint64) { noLanes() }

func nttQuartetsIFMA(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64) { noLanes() }

func nttLastPassIFMA(a, tw1, tw2 []uint64, q uint64) { noLanes() }

func inttFirstPassIFMA(a, twA, twB []uint64, q uint64) { noLanes() }

func inttQuartetsIFMA(a []uint64, groups, t int, twA, twB []uint64, q uint64) { noLanes() }

func inttLastQuartetsIFMA(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64) {
	noLanes()
}

func inttButterfliesLastIFMA(x, y []uint64, ni, nis, wn, wns, q uint64) { noLanes() }

func nttButterfliesIFMA51(x, y []uint64, w, ws, q uint64) { noLanes() }

func nttQuartetsIFMA51(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64) { noLanes() }

func nttLastPassIFMA51(a, tw1, tw2 []uint64, q uint64) { noLanes() }

func inttFirstPassIFMA51(a, twA, twB []uint64, q uint64) { noLanes() }

func inttQuartetsIFMA51(a []uint64, groups, t int, twA, twB []uint64, q uint64) { noLanes() }

func inttLastQuartetsIFMA51(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64) {
	noLanes()
}

func inttButterfliesLastIFMA51(x, y []uint64, ni, nis, wn, wns, q uint64) { noLanes() }
